//! Conductance-network assembly and the public solve API.

use crate::field::ThermalField;
use crate::multigrid::Multigrid;
use crate::power::PowerMap;
use crate::solver::{self, dispatch_width, eff_width, CgOutcome, CgResult, Tolerance};
use crate::stack::LayerDef;
use crate::workspace::{with_workspace, Workspace};

use std::sync::{Arc, Mutex};
use tesa_util::{faultpoint, metrics, trace, Json};

// Always-on solver telemetry, exported by `tesa serve` on `GET /metrics`.
// One histogram record (three relaxed atomic ops) per solve; negligible
// next to the solve itself.
pub(crate) static CG_ITERS: metrics::Histogram = metrics::Histogram::new(
    "tesa_thermal_cg_iterations",
    "CG iterations to convergence per steady/transient solve.",
);
pub(crate) static BATCH_WIDTH: metrics::Histogram = metrics::Histogram::new(
    "tesa_thermal_batch_width",
    "Systems per multi-RHS thermal solve batch.",
);
pub(crate) static VCYCLES: metrics::Counter = metrics::Counter::new(
    "tesa_thermal_vcycles_total",
    "Multigrid V-cycles applied as CG preconditioner.",
);
static CG_DEGRADED: metrics::Counter = metrics::Counter::new(
    "tesa_thermal_cg_degraded_total",
    "Steady solves that fell back to the Jacobi rung.",
);

/// Node count above which the mat-vec is chunked across the persistent
/// worker pool. The per-cell arithmetic is identical in every chunking, so
/// results do not depend on the lane count. The old scoped-thread version
/// gated at 64k nodes because per-call spawns cost more than the mat-vec
/// itself on production 64x64 stacks (~25k nodes); a pool broadcast is two
/// orders of magnitude cheaper, so those stacks now parallelize.
pub(crate) const PAR_MIN_NODES: usize = 4096;

/// `Auto` preconditioner choice: multigrid for grids of at least this many
/// cells per layer, Jacobi below. Small grids converge in few iterations
/// anyway, and keeping them on the historical Jacobi path preserves their
/// solutions bit-for-bit.
const MG_MIN_CELLS: usize = 2048;

/// Preconditioner selection for the steady-state CG solve, set via
/// [`crate::StackBuilder::preconditioner`].
///
/// Both preconditioners solve the same SPD system to the same tolerance;
/// they differ only in iteration count (and hence runtime) and in
/// last-digit rounding of the converged iterate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preconditioner {
    /// Pick per grid size: [`Preconditioner::Multigrid`] on production-size
    /// grids, [`Preconditioner::Jacobi`] on small ones.
    #[default]
    Auto,
    /// Diagonal scaling — cheap per iteration, iteration count grows with
    /// grid resolution.
    Jacobi,
    /// Geometric multigrid V-cycle (the private `multigrid` module) —
    /// grid-size
    /// independent iteration counts.
    Multigrid,
}

/// How a [`ThermalModel::solve_recoverable`] solve completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveQuality {
    /// The configured (primary) preconditioner converged.
    Full,
    /// The primary attempt failed; the field comes from the cold-start
    /// Jacobi fallback rung of the degradation ladder. The fallback solves
    /// the same system to the same tolerance, so the result differs from a
    /// full solve only in last-digit rounding — but callers should surface
    /// the flag, since a failing primary solver is worth investigating.
    DegradedJacobi,
}

/// Every rung of the [`ThermalModel::solve_recoverable`] degradation
/// ladder failed to converge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveError {
    /// Residual 2-norm of the last attempt when it gave up.
    pub residual: f64,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thermal CG failed to converge on every ladder rung (final residual {:e})",
            self.residual
        )
    }
}

impl std::error::Error for SolveError {}

/// Transient-solve diagonals for one step size: `C/dt` and `diag + C/dt`.
/// Cached on the model because schedule transients take thousands of equal
/// steps.
#[derive(Debug)]
struct TransientDiags {
    dt_s: f64,
    inv_dt: Vec<f64>,
    diag_t: Vec<f64>,
}

#[derive(Debug, Default)]
struct TransientCache(Mutex<Option<Arc<TransientDiags>>>);

impl Clone for TransientCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// A ready-to-solve steady-state thermal model: the finite-volume
/// conductance network of one package stack.
///
/// Built via [`crate::StackBuilder`]. Solving is a pure function of the
/// injected power, so one model can be reused across many power maps (TESA
/// re-solves the same MCM layout once per schedule phase and leakage
/// iteration).
#[derive(Debug, Clone)]
pub struct ThermalModel {
    nx: usize,
    ny: usize,
    nl: usize,
    width_m: f64,
    height_m: f64,
    /// Lateral conductance to the +x neighbor: `nl * ny * (nx-1)`.
    gx: Vec<f64>,
    /// Lateral conductance to the +y neighbor: `nl * (ny-1) * nx`.
    gy: Vec<f64>,
    /// Vertical conductance to the layer above: `(nl-1) * ny * nx`.
    gz: Vec<f64>,
    /// Conductance from each top-layer cell to ambient: `ny * nx`.
    gamb: Vec<f64>,
    /// Matrix diagonal (sum of incident conductances per node).
    diag: Vec<f64>,
    /// Thermal capacitance of one node in each layer, J/K (cell volume x
    /// the layer's volumetric heat capacity) — transient solves only.
    layer_cap: Vec<f64>,
    ambient_c: f64,
    layer_names: Vec<String>,
    /// Multigrid hierarchy when the resolved preconditioner is multigrid;
    /// shared with the surrogates built from this model.
    mg: Option<Arc<Multigrid>>,
    /// Pool-lane cap for this model's solves (see
    /// [`ThermalModel::set_parallel_lanes`]).
    lanes: usize,
    transient_diags: TransientCache,
}

/// One right-hand side of a batched [`ThermalModel::solve_batch_recoverable`]
/// call: an injected power map plus an optional warm-start field.
#[derive(Debug, Clone, Copy)]
pub struct BatchSolveRequest<'a> {
    /// Injected power for this system.
    pub power: &'a PowerMap,
    /// Previous solution to warm-start from (length must match the grid).
    pub guess: Option<&'a [f64]>,
}

/// `y = A x` for a conductance network over k interleaved `[node][rhs]`
/// systems, in gather form: every output cell accumulates
/// `diag*x - sum(g * x_neighbor)` with a fixed neighbor order (left, right,
/// down, up, below, above), so the result is independent of how the output
/// range is chunked across lanes. One fused pass over the conductance
/// arrays applies the operator to every system, and per system the
/// arithmetic does not depend on k. Shared between the fine model and the
/// multigrid levels. `lanes` caps the pool lanes used; 1 (or a system below
/// [`PAR_MIN_NODES`] nodes) runs one chunk on the calling thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_network(
    nx: usize,
    ny: usize,
    nl: usize,
    gx: &[f64],
    gy: &[f64],
    gz: &[f64],
    diag: &[f64],
    x: &[f64],
    y: &mut [f64],
    lanes: usize,
    k: usize,
) {
    let n = nl * ny * nx;
    debug_assert_eq!(x.len(), n * k);
    debug_assert_eq!(y.len(), n * k);
    let total_rows = nl * ny;
    let lanes = if n >= PAR_MIN_NODES { lanes.min(total_rows).max(1) } else { 1 };
    if lanes <= 1 {
        dispatch_width!(k, apply_rows(nx, ny, nl, gx, gy, gz, diag, x, 0, total_rows, y, k));
        return;
    }
    let span = total_rows.div_ceil(lanes);
    let mut items: Vec<(usize, &mut [f64])> = Vec::with_capacity(lanes);
    let mut rest = y;
    let mut row0 = 0;
    while row0 < total_rows {
        let rows = span.min(total_rows - row0);
        let (chunk, tail) = rest.split_at_mut(rows * nx * k);
        rest = tail;
        items.push((row0, chunk));
        row0 += rows;
    }
    tesa_util::pool::global().scatter(lanes, items, |_, (start, chunk)| {
        let rows = chunk.len() / (nx * k);
        dispatch_width!(
            k,
            apply_rows(nx, ny, nl, gx, gy, gz, diag, x, start, start + rows, chunk, k)
        );
    });
}

/// One directional pass's scale step: `oc = dv * xc` per k-wide cell.
/// Kept out-of-line so the optimizer sees a tiny loop with no surrounding
/// aliasing to reason about — inlined into the six-pass body it refuses to
/// vectorize the k-wide inner loops.
#[inline(never)]
fn scale_pass<const KW: usize>(out_row: &mut [f64], xrow: &[f64], coeff: &[f64], k: usize) {
    let k = eff_width(KW, k);
    for ((oc, xc), &cv) in out_row.chunks_exact_mut(k).zip(xrow.chunks_exact(k)).zip(coeff) {
        for s in 0..k {
            oc[s] = cv * xc[s];
        }
    }
}

/// One directional pass's subtract step: `oc -= gv * xc` per k-wide cell.
/// Same out-of-line rationale as [`scale_pass`].
#[inline(never)]
fn sub_pass<const KW: usize>(out_row: &mut [f64], xrow: &[f64], coeff: &[f64], k: usize) {
    let k = eff_width(KW, k);
    for ((oc, xc), &gv) in out_row.chunks_exact_mut(k).zip(xrow.chunks_exact(k)).zip(coeff) {
        for s in 0..k {
            oc[s] -= gv * xc[s];
        }
    }
}

/// The rows `[row_start, row_end)` of the mat-vec (global row = `l*ny+iy`)
/// over k interleaved systems, written to `out` starting at the first
/// row's offset. Each neighbor direction is its own stride-1 pass over the
/// row, delegated to [`scale_pass`]/[`sub_pass`]; per system the
/// per-element accumulation order (diag, left, right, down, up, below,
/// above) matches the historical element-at-a-time loop exactly, so the
/// results are bit-identical — the passes and the const width (`KW`, via
/// [`dispatch_width!`]) only change codegen.
#[allow(clippy::too_many_arguments)]
fn apply_rows<const KW: usize>(
    nx: usize,
    ny: usize,
    nl: usize,
    gx: &[f64],
    gy: &[f64],
    gz: &[f64],
    diag: &[f64],
    x: &[f64],
    row_start: usize,
    row_end: usize,
    out: &mut [f64],
    k: usize,
) {
    let k = eff_width(KW, k);
    let plane = ny * nx;
    let w = nx * k;
    for row in row_start..row_end {
        let l = row / ny;
        let iy = row % ny;
        let base = row * w;
        let o = (row - row_start) * w;
        let out_row = &mut out[o..o + w];
        let xrow = &x[base..base + w];
        let drow = &diag[row * nx..row * nx + nx];
        scale_pass::<KW>(out_row, xrow, drow, k);
        if nx > 1 {
            let gxrow = &gx[l * ny * (nx - 1) + iy * (nx - 1)..][..nx - 1];
            // Left neighbor: cells 1..nx read cells 0..nx-1.
            sub_pass::<KW>(&mut out_row[k..], &xrow[..w - k], gxrow, k);
            // Right neighbor: cells 0..nx-1 read cells 1..nx.
            sub_pass::<KW>(&mut out_row[..w - k], &xrow[k..], gxrow, k);
        }
        if iy > 0 {
            let gyrow = &gy[l * (ny - 1) * nx + (iy - 1) * nx..][..nx];
            sub_pass::<KW>(out_row, &x[base - w..base], gyrow, k);
        }
        if iy + 1 < ny {
            let gyrow = &gy[l * (ny - 1) * nx + iy * nx..][..nx];
            sub_pass::<KW>(out_row, &x[base + w..base + 2 * w], gyrow, k);
        }
        if l > 0 {
            let gzrow = &gz[(l - 1) * plane + iy * nx..][..nx];
            sub_pass::<KW>(out_row, &x[base - plane * k..base - plane * k + w], gzrow, k);
        }
        if l + 1 < nl {
            let gzrow = &gz[l * plane + iy * nx..][..nx];
            sub_pass::<KW>(out_row, &x[base + plane * k..base + plane * k + w], gzrow, k);
        }
    }
}

impl ThermalModel {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        width_m: f64,
        height_m: f64,
        nx: usize,
        ny: usize,
        layers: Vec<LayerDef>,
        convection_k_per_w: f64,
        ambient_c: f64,
        precond: Preconditioner,
    ) -> Self {
        let nl = layers.len();
        let cw = width_m / nx as f64;
        let ch = height_m / ny as f64;
        let cell_area = cw * ch;
        let total_area = width_m * height_m;

        // Per-cell conductivity for each layer: background then patches.
        // A patch only touches the cells its bounding box covers, with the
        // x/y overlap extents precomputed per axis — O(patch cells), not
        // O(patches x grid cells).
        let mut k = vec![0.0f64; nl * ny * nx];
        let mut ox = vec![0.0f64; nx];
        let mut oy = vec![0.0f64; ny];
        for (l, def) in layers.iter().enumerate() {
            let base = l * ny * nx;
            for c in &mut k[base..base + ny * nx] {
                *c = def.background_k;
            }
            for (rect, pk) in &def.patches {
                let ix0 = ((rect.x / cw).floor().max(0.0) as usize).min(nx);
                let ix1 = (((rect.x2() / cw).ceil()).max(0.0) as usize).min(nx);
                let iy0 = ((rect.y / ch).floor().max(0.0) as usize).min(ny);
                let iy1 = (((rect.y2() / ch).ceil()).max(0.0) as usize).min(ny);
                for (i, o) in ox[ix0..ix1].iter_mut().enumerate() {
                    let cx = (ix0 + i) as f64 * cw;
                    *o = (rect.x2().min(cx + cw) - rect.x.max(cx)).max(0.0);
                }
                for (i, o) in oy[iy0..iy1].iter_mut().enumerate() {
                    let cy = (iy0 + i) as f64 * ch;
                    *o = (rect.y2().min(cy + ch) - rect.y.max(cy)).max(0.0);
                }
                for iy in iy0..iy1 {
                    for ix in ix0..ix1 {
                        // A cell takes the patch conductivity when the
                        // patch covers the majority of it.
                        if ox[ix] * oy[iy] >= 0.5 * cell_area {
                            k[base + iy * nx + ix] = *pk;
                        }
                    }
                }
            }
        }

        let idx = |l: usize, ix: usize, iy: usize| l * ny * nx + iy * nx + ix;

        // Lateral conductances: series of two half-cells.
        let mut gx = vec![0.0f64; nl * ny * (nx - 1).max(1)];
        if nx > 1 {
            for l in 0..nl {
                let t = layers[l].thickness_m;
                for iy in 0..ny {
                    for ix in 0..nx - 1 {
                        let k1 = k[idx(l, ix, iy)];
                        let k2 = k[idx(l, ix + 1, iy)];
                        let r = (cw / 2.0) / (k1 * t * ch) + (cw / 2.0) / (k2 * t * ch);
                        gx[l * ny * (nx - 1) + iy * (nx - 1) + ix] = 1.0 / r;
                    }
                }
            }
        }
        let mut gy = vec![0.0f64; nl * (ny - 1).max(1) * nx];
        if ny > 1 {
            for l in 0..nl {
                let t = layers[l].thickness_m;
                for iy in 0..ny - 1 {
                    for ix in 0..nx {
                        let k1 = k[idx(l, ix, iy)];
                        let k2 = k[idx(l, ix, iy + 1)];
                        let r = (ch / 2.0) / (k1 * t * cw) + (ch / 2.0) / (k2 * t * cw);
                        gy[l * (ny - 1) * nx + iy * nx + ix] = 1.0 / r;
                    }
                }
            }
        }

        // Vertical conductances: series of two half-thicknesses.
        let mut gz = vec![0.0f64; nl.saturating_sub(1) * ny * nx];
        for l in 0..nl.saturating_sub(1) {
            let (t1, t2) = (layers[l].thickness_m, layers[l + 1].thickness_m);
            for iy in 0..ny {
                for ix in 0..nx {
                    let k1 = k[idx(l, ix, iy)];
                    let k2 = k[idx(l + 1, ix, iy)];
                    let r = (t1 / 2.0) / (k1 * cell_area) + (t2 / 2.0) / (k2 * cell_area);
                    gz[l * ny * nx + iy * nx + ix] = 1.0 / r;
                }
            }
        }

        // Convection from the top layer: half-cell conduction in series with
        // the cell's share of the lumped convection resistance.
        let top = nl - 1;
        let t_top = layers[top].thickness_m;
        let mut gamb = vec![0.0f64; ny * nx];
        for iy in 0..ny {
            for ix in 0..nx {
                let kt = k[idx(top, ix, iy)];
                let r = (t_top / 2.0) / (kt * cell_area)
                    + convection_k_per_w * (total_area / cell_area);
                gamb[iy * nx + ix] = 1.0 / r;
            }
        }

        // Diagonal: sum of all conductances incident on each node.
        let n = nl * ny * nx;
        let mut diag = vec![0.0f64; n];
        if nx > 1 {
            for l in 0..nl {
                for iy in 0..ny {
                    for ix in 0..nx - 1 {
                        let g = gx[l * ny * (nx - 1) + iy * (nx - 1) + ix];
                        diag[idx(l, ix, iy)] += g;
                        diag[idx(l, ix + 1, iy)] += g;
                    }
                }
            }
        }
        if ny > 1 {
            for l in 0..nl {
                for iy in 0..ny - 1 {
                    for ix in 0..nx {
                        let g = gy[l * (ny - 1) * nx + iy * nx + ix];
                        diag[idx(l, ix, iy)] += g;
                        diag[idx(l, ix, iy + 1)] += g;
                    }
                }
            }
        }
        for l in 0..nl.saturating_sub(1) {
            for c in 0..ny * nx {
                let g = gz[l * ny * nx + c];
                diag[l * ny * nx + c] += g;
                diag[(l + 1) * ny * nx + c] += g;
            }
        }
        for c in 0..ny * nx {
            diag[top * ny * nx + c] += gamb[c];
        }

        // Thermal capacitance of a node in each layer, for transient
        // analysis.
        let layer_cap: Vec<f64> = layers
            .iter()
            .map(|def| def.vol_heat_capacity * cell_area * def.thickness_m)
            .collect();

        let use_mg = match precond {
            Preconditioner::Auto => nx * ny >= MG_MIN_CELLS,
            Preconditioner::Multigrid => true,
            Preconditioner::Jacobi => false,
        };
        let mg = use_mg.then(|| Arc::new(Multigrid::build(nx, ny, nl, &gx, &gy, &gz, &diag)));

        Self {
            nx,
            ny,
            nl,
            width_m,
            height_m,
            gx,
            gy,
            gz,
            gamb,
            diag,
            layer_cap,
            ambient_c,
            layer_names: layers.into_iter().map(|l| l.name).collect(),
            mg,
            lanes: tesa_util::pool::global().lanes(),
            transient_diags: TransientCache::default(),
        }
    }

    /// Caps how many persistent pool lanes this model's solves may use
    /// (clamped to at least 1). Defaults to every lane of the global pool.
    /// All parallel kernels are bit-identical for any cap, so this is a
    /// performance knob only — benchmarks use it to measure thread-count
    /// scaling inside one process.
    pub fn set_parallel_lanes(&mut self, lanes: usize) {
        self.lanes = lanes.max(1);
    }

    /// The current pool-lane cap for this model's solves.
    pub fn parallel_lanes(&self) -> usize {
        self.lanes
    }

    /// Number of stack layers.
    pub fn num_layers(&self) -> usize {
        self.nl
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Footprint `(width, height)` in meters.
    pub fn footprint_m(&self) -> (f64, f64) {
        (self.width_m, self.height_m)
    }

    /// Ambient temperature in °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Layer names, bottom first.
    pub fn layer_names(&self) -> &[String] {
        &self.layer_names
    }

    /// The *resolved* steady-state preconditioner ([`Preconditioner::Auto`]
    /// never appears here).
    pub fn preconditioner(&self) -> Preconditioner {
        if self.mg.is_some() {
            Preconditioner::Multigrid
        } else {
            Preconditioner::Jacobi
        }
    }

    /// A zeroed power map with this model's dimensions.
    pub fn zero_power(&self) -> PowerMap {
        PowerMap::new(self.nx, self.ny, self.nl, self.width_m, self.height_m)
    }

    /// Builds the cheap coarse-level surrogate solver for this model's
    /// conductance network (see [`crate::Surrogate`]). The surrogate shares
    /// the model's multigrid hierarchy when there is one; on the Jacobi
    /// path a hierarchy is built here once. The hierarchy is immutable, so
    /// the surrogate is independent of the model afterwards.
    pub fn surrogate(&self) -> crate::Surrogate {
        crate::Surrogate::from_network(
            self.nx,
            self.ny,
            self.nl,
            &self.gx,
            &self.gy,
            &self.gz,
            &self.diag,
            &self.gamb,
            self.ambient_c,
            self.mg.clone(),
            self.lanes,
        )
    }

    /// Applies the conductance matrix to k interleaved systems: `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64], k: usize) {
        apply_network(
            self.nx, self.ny, self.nl, &self.gx, &self.gy, &self.gz, &self.diag, x, y, self.lanes,
            k,
        );
    }

    /// Solves the steady state for the given power map.
    ///
    /// # Panics
    ///
    /// Panics if `power` was created for a different grid, or if the
    /// conjugate-gradient solver fails to converge (which indicates a
    /// malformed stack, not a user input problem).
    pub fn solve(&self, power: &PowerMap) -> ThermalField {
        let x = vec![self.ambient_c; self.nl * self.ny * self.nx];
        self.solve_systems(&[(power, false, Tolerance::default())], x).remove(0)
    }

    /// Solves the steady state starting from a previous solution — an
    /// effective warm start inside leakage-convergence loops.
    ///
    /// # Panics
    ///
    /// As for [`ThermalModel::solve`]; additionally if `guess` has the wrong
    /// length.
    pub fn solve_with_guess(&self, power: &PowerMap, guess: &[f64]) -> ThermalField {
        let n = self.nl * self.ny * self.nx;
        assert_eq!(guess.len(), n, "warm-start guess has the wrong length");
        self.solve_systems(&[(power, true, Tolerance::default())], guess.to_vec()).remove(0)
    }

    /// Batched [`ThermalModel::solve`]: one fused multi-RHS CG run over all
    /// power maps, cold-started from ambient. Each returned field is
    /// bit-identical to `solve` on that power map alone.
    ///
    /// # Panics
    ///
    /// As for [`ThermalModel::solve`], for any of the systems.
    pub fn solve_batch(&self, powers: &[&PowerMap]) -> Vec<ThermalField> {
        let xs = vec![self.ambient_c; self.nl * self.ny * self.nx * powers.len()];
        let systems: Vec<(&PowerMap, bool, Tolerance)> =
            powers.iter().map(|&p| (p, false, Tolerance::default())).collect();
        self.solve_systems(&systems, xs)
    }

    /// Steady solves of `systems` (power, warm flag, tolerance) from the
    /// interleaved initial iterates `xs`, panicking if any fails to
    /// converge.
    fn solve_systems(
        &self,
        systems: &[(&PowerMap, bool, Tolerance)],
        mut xs: Vec<f64>,
    ) -> Vec<ThermalField> {
        for outcome in self.steady_solve_outcome(systems, &mut xs, false) {
            if let CgOutcome::MaxIterations { residual } = outcome {
                panic!("thermal CG failed to converge (residual {residual:e})");
            }
        }
        self.fields(xs, systems.len())
    }

    /// The fields of `k` interleaved solutions; a single one is moved, not
    /// copied.
    fn fields(&self, xs: Vec<f64>, k: usize) -> Vec<ThermalField> {
        solver::split_systems(xs, k)
            .into_iter()
            .map(|temps_c| ThermalField { nx: self.nx, ny: self.ny, num_layers: self.nl, temps_c })
            .collect()
    }

    /// One steady-state CG attempt over `systems` (power, warm flag,
    /// tolerance), with the initial iterates interleaved in `xs`; the
    /// caller decides what a non-convergent outcome means. `force_jacobi`
    /// bypasses the multigrid preconditioner (the fallback rung of the
    /// degradation ladder). Emits one `thermal.cg` event per system and,
    /// when more than one system shares the fused sweeps, one
    /// `thermal.batch` event.
    fn steady_solve_outcome(
        &self,
        systems: &[(&PowerMap, bool, Tolerance)],
        xs: &mut [f64],
        force_jacobi: bool,
    ) -> Vec<CgOutcome> {
        let k = systems.len();
        let n = self.nl * self.ny * self.nx;
        // Right-hand sides: injected power plus the ambient anchor.
        let watts: Vec<Option<&[f64]>> = systems
            .iter()
            .map(|(power, _, _)| {
                assert_eq!(power.watts.len(), n, "power map does not match this model's grid");
                Some(power.watts.as_slice())
            })
            .collect();
        let tols: Vec<Tolerance> = systems.iter().map(|&(_, _, tol)| tol).collect();
        let mg = if force_jacobi { None } else { self.mg.as_deref() };
        let used_mg = mg.is_some();
        let result = with_workspace(|ws| {
            let Workspace { cg, mg: mgs, rhs, .. } = ws;
            solver::interleave(&watts, n, 0.0, rhs);
            let top = (self.nl - 1) * self.ny * self.nx;
            for c in 0..self.ny * self.nx {
                let anchor = self.gamb[c] * self.ambient_c;
                for slot in &mut rhs[(top + c) * k..(top + c + 1) * k] {
                    *slot += anchor;
                }
            }
            let apply = |v: &[f64], out: &mut [f64], kw: usize| self.apply(v, out, kw);
            match mg {
                Some(mg) => solver::preconditioned_cg(
                    apply,
                    |r, z, kw| mg.vcycle(r, z, mgs, self.lanes, kw),
                    rhs,
                    xs,
                    n,
                    &tols,
                    cg,
                    self.lanes,
                ),
                None => solver::preconditioned_cg(
                    apply,
                    solver::jacobi(&self.diag),
                    rhs,
                    xs,
                    n,
                    &tols,
                    cg,
                    self.lanes,
                ),
            }
        });
        if used_mg {
            VCYCLES.add(result.precond_calls);
        }
        let precond = if used_mg { "multigrid" } else { "jacobi" };
        for (&(_, warm, tol), &outcome) in systems.iter().zip(&result.outcomes) {
            CG_ITERS.record(outcome.stats(tol.max_iters).0 as u64);
            trace::event("thermal.cg", move || {
                let (iters, residual) = outcome.stats(tol.max_iters);
                vec![
                    ("n", Json::U64(n as u64)),
                    ("precond", Json::str(precond)),
                    ("warm", Json::Bool(warm)),
                    ("iters", Json::U64(iters as u64)),
                    ("residual", Json::F64(residual)),
                ]
            });
        }
        if k > 1 {
            record_batch(n, precond, &result, &tols);
        }
        result.outcomes
    }

    /// Solves the steady state through a degradation ladder instead of
    /// panicking: the configured preconditioner first (warm-started from
    /// `guess` when given), then — if that fails — one cold-start retry
    /// with the Jacobi preconditioner, which depends on neither the
    /// multigrid hierarchy nor the possibly-poisoned guess. Each fallback
    /// use bumps the `thermal.cg.degraded` trace counter.
    ///
    /// Fault-injection sites (see [`tesa_util::faultpoint`]):
    /// `thermal.cg.diverge` makes the primary attempt fail without solving,
    /// `thermal.cg.budget` caps the primary attempt at a tiny iteration
    /// budget, and `thermal.cg.fallback` fails the fallback rung too.
    ///
    /// # Errors
    ///
    /// [`SolveError`] when both rungs fail to converge.
    ///
    /// # Panics
    ///
    /// Panics if `power` or `guess` was created for a different grid.
    pub fn solve_recoverable(
        &self,
        power: &PowerMap,
        guess: Option<&[f64]>,
    ) -> Result<(ThermalField, SolveQuality), SolveError> {
        self.solve_batch_recoverable(&[BatchSolveRequest { power, guess }]).remove(0)
    }

    /// Batched [`ThermalModel::solve_recoverable`]: solves every request's
    /// steady state through one multi-RHS CG run per degradation-ladder
    /// rung, sharing each fused stencil sweep across all unretired
    /// systems. Every request's field, quality, and error are bit-identical
    /// to a `solve_recoverable` of that request alone, and the
    /// fault-injection sites fire once per request in request order exactly
    /// as a loop over the batch would fire them.
    ///
    /// # Errors
    ///
    /// Per request, [`SolveError`] when both ladder rungs fail to converge.
    ///
    /// # Panics
    ///
    /// Panics if any `power` or `guess` was created for a different grid.
    pub fn solve_batch_recoverable(
        &self,
        requests: &[BatchSolveRequest<'_>],
    ) -> Vec<Result<(ThermalField, SolveQuality), SolveError>> {
        let n = self.nl * self.ny * self.nx;

        // Fire the per-request primary fault sites in request order; an
        // injected divergence skips the solve, so the fault fires
        // regardless of how quickly this grid actually converges.
        let mut live: Vec<usize> = Vec::with_capacity(requests.len());
        let mut systems: Vec<(&PowerMap, bool, Tolerance)> = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            if let Some(g) = req.guess {
                assert_eq!(g.len(), n, "warm-start guess has the wrong length");
            }
            if faultpoint::fire("thermal.cg.diverge") {
                continue;
            }
            let tol = if faultpoint::fire("thermal.cg.budget") {
                Tolerance { max_iters: 1, ..Tolerance::default() }
            } else {
                Tolerance::default()
            };
            live.push(i);
            systems.push((req.power, req.guess.is_some(), tol));
        }

        // One batched primary solve over the requests that were not failed.
        let mut primary: Vec<Option<(CgOutcome, ThermalField)>> =
            requests.iter().map(|_| None).collect();
        if !live.is_empty() {
            let guesses: Vec<Option<&[f64]>> = live.iter().map(|&i| requests[i].guess).collect();
            let mut xs = Vec::new();
            solver::interleave(&guesses, n, self.ambient_c, &mut xs);
            let outcomes = self.steady_solve_outcome(&systems, &mut xs, false);
            let fields = self.fields(xs, live.len());
            for ((&i, outcome), field) in live.iter().zip(outcomes).zip(fields) {
                primary[i] = Some((outcome, field));
            }
        }

        // Classify in request order, firing the fallback sites.
        let mut results: Vec<Option<Result<(ThermalField, SolveQuality), SolveError>>> =
            requests.iter().map(|_| None).collect();
        let mut retry: Vec<usize> = Vec::new();
        for (i, slot) in primary.into_iter().enumerate() {
            let residual = match slot {
                Some((CgOutcome::Converged { .. }, field)) => {
                    results[i] = Some(Ok((field, SolveQuality::Full)));
                    continue;
                }
                Some((CgOutcome::MaxIterations { residual }, _)) => residual,
                None => f64::INFINITY,
            };
            CG_DEGRADED.inc();
            trace::counter("thermal.cg.degraded", 1.0);
            if faultpoint::fire("thermal.cg.fallback") {
                results[i] = Some(Err(SolveError { residual }));
            } else {
                retry.push(i);
            }
        }

        // One batched cold-start Jacobi solve over the fallbacks.
        if !retry.is_empty() {
            let systems: Vec<(&PowerMap, bool, Tolerance)> =
                retry.iter().map(|&i| (requests[i].power, false, Tolerance::default())).collect();
            let mut xs = vec![self.ambient_c; n * retry.len()];
            let outcomes = self.steady_solve_outcome(&systems, &mut xs, true);
            let fields = self.fields(xs, retry.len());
            for ((&i, outcome), field) in retry.iter().zip(outcomes).zip(fields) {
                results[i] = Some(match outcome {
                    CgOutcome::Converged { .. } => Ok((field, SolveQuality::DegradedJacobi)),
                    CgOutcome::MaxIterations { residual } => Err(SolveError { residual }),
                });
            }
        }
        results.into_iter().map(|r| r.expect("every request resolves once")).collect()
    }

    /// The cached `(C/dt, diag + C/dt)` pair for a step size, rebuilt only
    /// when `dt_s` changes. `C/dt` is expanded to one entry per node.
    fn transient_diags(&self, dt_s: f64) -> Arc<TransientDiags> {
        let mut slot = self.transient_diags.0.lock().expect("transient cache poisoned");
        if let Some(d) = slot.as_ref() {
            if d.dt_s == dt_s {
                return Arc::clone(d);
            }
        }
        let plane = self.ny * self.nx;
        let inv_dt: Vec<f64> = self
            .layer_cap
            .iter()
            .flat_map(|c| std::iter::repeat_n(c / dt_s, plane))
            .collect();
        let diag_t: Vec<f64> = self.diag.iter().zip(&inv_dt).map(|(d, c)| d + c).collect();
        let built = Arc::new(TransientDiags { dt_s, inv_dt, diag_t });
        *slot = Some(Arc::clone(&built));
        built
    }

    /// Advances the temperature field by one backward-Euler step of length
    /// `dt_s` under constant injected power:
    /// `(C/dt + G) T_new = C/dt * T_old + P + G_amb * T_amb`.
    ///
    /// Backward Euler is unconditionally stable, so `dt_s` may exceed the
    /// smallest RC constant of the stack without oscillation (accuracy, not
    /// stability, bounds the step).
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not positive, if dimensions mismatch, or if the
    /// CG solve fails to converge.
    pub fn transient_step(
        &self,
        power: &PowerMap,
        current: &ThermalField,
        dt_s: f64,
    ) -> ThermalField {
        assert!(dt_s > 0.0, "time step must be positive");
        let n = self.nl * self.ny * self.nx;
        assert_eq!(power.watts.len(), n, "power map does not match this model's grid");
        assert_eq!(current.temps_c.len(), n, "field does not match this model's grid");

        let diags = self.transient_diags(dt_s);
        let (inv_dt, diag_t) = (&diags.inv_dt, &diags.diag_t);
        let mut x = current.temps_c.clone();
        let tol = Tolerance::default();
        let outcome = with_workspace(|ws| {
            ws.rhs.clear();
            ws.rhs.extend(
                power
                    .watts
                    .iter()
                    .zip(inv_dt.iter().zip(&current.temps_c))
                    .map(|(&p, (&c, &t))| p + c * t),
            );
            let top = (self.nl - 1) * self.ny * self.nx;
            for c in 0..self.ny * self.nx {
                ws.rhs[top + c] += self.gamb[c] * self.ambient_c;
            }
            solver::preconditioned_cg(
                |v, out, k| {
                    self.apply(v, out, k);
                    for (o, (&c, &vi)) in out.iter_mut().zip(inv_dt.iter().zip(v)) {
                        *o += c * vi;
                    }
                },
                solver::jacobi(diag_t),
                &ws.rhs,
                &mut x,
                n,
                &[tol],
                &mut ws.cg,
                self.lanes,
            )
            .outcomes[0]
        });
        CG_ITERS.record(outcome.stats(tol.max_iters).0 as u64);
        trace::event("thermal.transient_cg", || {
            let (iters, residual) = outcome.stats(tol.max_iters);
            vec![
                ("n", Json::U64(n as u64)),
                ("iters", Json::U64(iters as u64)),
                ("residual", Json::F64(residual)),
            ]
        });
        match outcome {
            CgOutcome::Converged { .. } => {}
            CgOutcome::MaxIterations { residual } => {
                panic!("transient CG failed to converge (residual {residual:e})")
            }
        }
        ThermalField { nx: self.nx, ny: self.ny, num_layers: self.nl, temps_c: x }
    }

    /// The uniform-ambient initial field for transient simulations.
    pub fn ambient_field(&self) -> ThermalField {
        ThermalField {
            nx: self.nx,
            ny: self.ny,
            num_layers: self.nl,
            temps_c: vec![self.ambient_c; self.nl * self.ny * self.nx],
        }
    }

    /// Runs a constant-power transient for `steps` steps of `dt_s` from
    /// `initial`, returning the per-step peak temperatures and the final
    /// field. This is the building block for phase-by-phase schedule
    /// transients (an extension over the paper's steady-state-only flow).
    ///
    /// # Panics
    ///
    /// As for [`ThermalModel::transient_step`].
    pub fn transient(
        &self,
        power: &PowerMap,
        initial: &ThermalField,
        dt_s: f64,
        steps: usize,
    ) -> (Vec<f64>, ThermalField) {
        let mut field = initial.clone();
        let mut peaks = Vec::with_capacity(steps);
        for _ in 0..steps {
            field = self.transient_step(power, &field, dt_s);
            peaks.push(field.peak_c());
        }
        (peaks, field)
    }
}

/// Records one multi-RHS batch of `tols.len()` systems of `n` unknowns:
/// the `tesa_thermal_batch_width` histogram and the `thermal.batch` trace
/// event (fused sweeps and each system's retirement iteration).
pub(crate) fn record_batch(n: usize, precond: &'static str, result: &CgResult, tols: &[Tolerance]) {
    BATCH_WIDTH.record(tols.len() as u64);
    trace::event("thermal.batch", || {
        let retire: Vec<Json> = result
            .outcomes
            .iter()
            .zip(tols)
            .map(|(o, t)| Json::U64(o.stats(t.max_iters).0 as u64))
            .collect();
        vec![
            ("n", Json::U64(n as u64)),
            ("batch", Json::U64(tols.len() as u64)),
            ("precond", Json::str(precond)),
            ("fused_sweeps", Json::U64(result.fused_sweeps)),
            ("retire_iters", Json::Arr(retire)),
        ]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rect, StackBuilder};

    fn production_model(precond: Preconditioner) -> ThermalModel {
        let chips: Vec<(Rect, f64)> = (0..4)
            .map(|i| {
                let x = 1.0e-3 + f64::from(i % 2) * 3.4e-3;
                let y = 1.0e-3 + f64::from(i / 2) * 3.4e-3;
                (Rect::new(x, y, 2.4e-3, 2.4e-3), 120.0)
            })
            .collect();
        StackBuilder::new(8e-3, 8e-3, 64, 64)
            .layer("interposer", 100e-6, 120.0)
            .layer_with_patches("device", 150e-6, 0.9, chips)
            .layer("tim", 65e-6, 1.2)
            .layer("lid", 300e-6, 200.0)
            .convection(0.4, 45.0)
            .preconditioner(precond)
            .build()
    }

    fn solve_counting_iterations(m: &ThermalModel) -> (usize, ThermalField) {
        let mut p = m.zero_power();
        p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.0);
        let mut x = vec![m.ambient_c; m.nl * m.ny * m.nx];
        let outcome = m.steady_solve_outcome(&[(&p, false, Tolerance::default())], &mut x, false);
        let iters = match outcome[0] {
            CgOutcome::Converged { iterations, .. } => iterations,
            CgOutcome::MaxIterations { residual } => panic!("no convergence ({residual:e})"),
        };
        (iters, ThermalField { nx: m.nx, ny: m.ny, num_layers: m.nl, temps_c: x })
    }

    /// The multigrid preconditioner must cut production-grid CG iteration
    /// counts by at least 5x over Jacobi (measured ~15x), while both
    /// converge to the same field.
    #[test]
    fn multigrid_cuts_iteration_count() {
        let (jacobi_iters, jacobi_field) =
            solve_counting_iterations(&production_model(Preconditioner::Jacobi));
        let (mg_iters, mg_field) =
            solve_counting_iterations(&production_model(Preconditioner::Multigrid));
        assert!(
            mg_iters * 5 <= jacobi_iters,
            "multigrid took {mg_iters} iterations vs jacobi {jacobi_iters}"
        );
        for (a, b) in mg_field.as_slice().iter().zip(jacobi_field.as_slice()) {
            assert!((a - b).abs() < 1e-6, "fields diverge: {a} vs {b}");
        }
    }

    /// `Auto` keeps small grids on the historical Jacobi path and switches
    /// production grids to multigrid.
    #[test]
    fn auto_preconditioner_resolves_by_grid_size() {
        let small = StackBuilder::new(8e-3, 8e-3, 32, 32)
            .layer("die", 150e-6, 120.0)
            .build();
        assert_eq!(small.preconditioner(), Preconditioner::Jacobi);
        assert_eq!(production_model(Preconditioner::Auto).preconditioner(), Preconditioner::Multigrid);
    }

    /// Workspace reuse must be invisible: repeated solves of different
    /// power maps on one model agree with a solve on a fresh model, run on
    /// a freshly spawned thread that holds no workspace yet.
    #[test]
    fn scratch_pool_reuse_is_transparent() {
        let m = production_model(Preconditioner::Multigrid);
        let mut p1 = m.zero_power();
        p1.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.0);
        let mut p2 = m.zero_power();
        p2.add_uniform_rect(1, Rect::new(4.4e-3, 4.4e-3, 2.4e-3, 2.4e-3), 3.0);
        let first = m.solve(&p1);
        let _ = m.solve(&p2);
        let again = m.solve(&p1);
        assert_eq!(first, again, "solves must be deterministic under workspace reuse");
        let fresh = std::thread::spawn(move || {
            assert_eq!(crate::workspace::held(), 0, "the reference thread starts empty");
            production_model(Preconditioner::Multigrid).solve(&p1)
        })
        .join()
        .expect("reference solve holds");
        assert_eq!(first, fresh, "a reused workspace must not change results");
    }

    /// A surrogate built from a multigrid model shares the model's
    /// hierarchy instead of copying it.
    #[test]
    fn surrogate_shares_the_model_hierarchy() {
        let m = production_model(Preconditioner::Multigrid);
        let sur = m.surrogate();
        let mg = m.mg.as_ref().expect("a multigrid model carries a hierarchy");
        assert!(Arc::ptr_eq(mg, &sur.mg));
    }

    /// The transient diagonal cache rebuilds on dt change and is bit-exact.
    #[test]
    fn transient_diag_cache_handles_dt_changes() {
        let m = StackBuilder::new(4e-3, 4e-3, 8, 8)
            .layer("die", 150e-6, 120.0)
            .layer("lid", 300e-6, 200.0)
            .build();
        let mut p = m.zero_power();
        p.add_uniform_rect(0, Rect::new(0.5e-3, 0.5e-3, 2e-3, 2e-3), 1.0);
        let start = m.ambient_field();
        let a1 = m.transient_step(&p, &start, 1e-3);
        let b1 = m.transient_step(&p, &start, 2e-3);
        let a2 = m.transient_step(&p, &start, 1e-3);
        assert_eq!(a1, a2, "dt cache must be keyed on dt");
        assert!(b1.peak_c() > a1.peak_c(), "longer step heats further");
    }

    // The faultpoint registry is process-global; serialize the tests that
    // arm it.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Healthy path: `solve_recoverable` is `solve` plus a quality tag —
    /// same field, bit for bit, full quality.
    #[test]
    fn solve_recoverable_matches_solve_when_healthy() {
        let m = production_model(Preconditioner::Multigrid);
        let mut p = m.zero_power();
        p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.0);
        let plain = m.solve(&p);
        let (field, quality) = m.solve_recoverable(&p, None).expect("healthy solve");
        assert_eq!(quality, SolveQuality::Full);
        assert_eq!(field, plain);
    }

    /// An injected primary-solve divergence falls back to the cold-start
    /// Jacobi rung: same physics (within solver tolerance), degraded tag.
    #[test]
    fn injected_divergence_degrades_to_jacobi() {
        let _l = fault_lock();
        let m = production_model(Preconditioner::Multigrid);
        let mut p = m.zero_power();
        p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.0);
        let healthy = m.solve(&p);
        let plan = tesa_util::faultpoint::FaultPlan::new()
            .site("thermal.cg.diverge", tesa_util::faultpoint::Trigger::Always);
        let _scope = faultpoint::activate(&plan);
        let (field, quality) = m.solve_recoverable(&p, None).expect("the fallback rung holds");
        assert_eq!(quality, SolveQuality::DegradedJacobi);
        for (a, b) in field.as_slice().iter().zip(healthy.as_slice()) {
            assert!((a - b).abs() < 1e-6, "fallback diverges from healthy: {a} vs {b}");
        }
    }

    /// Batched cold-start solves must match single-system `solve` bit for
    /// bit, per system, whatever the batch width.
    #[test]
    fn batched_solves_match_single_system_bit_for_bit() {
        let m = production_model(Preconditioner::Multigrid);
        let powers: Vec<PowerMap> = (0..5)
            .map(|i| {
                let mut p = m.zero_power();
                let x = 1.0e-3 + f64::from(i % 2) * 3.4e-3;
                let y = 1.0e-3 + f64::from(i / 2) * 3.4e-3;
                p.add_uniform_rect(1, Rect::new(x, y, 2.4e-3, 2.4e-3), 1.5 + f64::from(i) * 0.4);
                p
            })
            .collect();
        let single: Vec<ThermalField> = powers.iter().map(|p| m.solve(p)).collect();
        let refs: Vec<&PowerMap> = powers.iter().collect();
        let batched = m.solve_batch(&refs);
        for (sy, (a, b)) in batched.iter().zip(&single).enumerate() {
            assert!(
                a.as_slice().iter().zip(b.as_slice()).all(|(u, v)| u.to_bits() == v.to_bits()),
                "batched field {sy} differs from the single-system solve"
            );
        }
    }

    /// A batched warm-started recoverable solve must match per-request
    /// single-system `solve_recoverable` calls bit for bit, including under an
    /// injected mid-batch divergence (per-site schedules see the requests
    /// in the same order either way).
    #[test]
    fn batched_recoverable_matches_single_system_under_faults() {
        let _l = fault_lock();
        let m = production_model(Preconditioner::Multigrid);
        let powers: Vec<PowerMap> = (0..3)
            .map(|i| {
                let mut p = m.zero_power();
                p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 1.0 + f64::from(i));
                p
            })
            .collect();
        let warm = m.solve(&powers[0]);
        let requests: Vec<BatchSolveRequest<'_>> = powers
            .iter()
            .enumerate()
            .map(|(i, power)| BatchSolveRequest {
                power,
                guess: (i == 1).then(|| warm.as_slice()),
            })
            .collect();
        let plan = tesa_util::faultpoint::FaultPlan::new()
            .site("thermal.cg.diverge", tesa_util::faultpoint::Trigger::Nth(2));
        let single: Vec<_> = {
            let _scope = faultpoint::activate(&plan);
            requests.iter().map(|r| m.solve_recoverable(r.power, r.guess)).collect()
        };
        let batched = {
            let _scope = faultpoint::activate(&plan);
            m.solve_batch_recoverable(&requests)
        };
        for (i, (s, b)) in single.iter().zip(&batched).enumerate() {
            let (sf, sq) = s.as_ref().expect("single-system ladder holds");
            let (bf, bq) = b.as_ref().expect("batched ladder holds");
            assert_eq!(sq, bq, "quality differs for request {i}");
            assert!(
                sf.as_slice().iter().zip(bf.as_slice()).all(|(u, v)| u.to_bits() == v.to_bits()),
                "field differs for request {i}"
            );
        }
        assert_eq!(batched[1].as_ref().expect("fallback holds").1, SolveQuality::DegradedJacobi);
    }

    /// When the fallback rung is failed too, the ladder reports an error
    /// instead of panicking or returning a diverged field.
    #[test]
    fn total_failure_reports_an_error() {
        let _l = fault_lock();
        let m = production_model(Preconditioner::Multigrid);
        let mut p = m.zero_power();
        p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 2.0);
        let plan = tesa_util::faultpoint::FaultPlan::new()
            .site("thermal.cg.diverge", tesa_util::faultpoint::Trigger::Always)
            .site("thermal.cg.fallback", tesa_util::faultpoint::Trigger::Always);
        let _scope = faultpoint::activate(&plan);
        let err = m.solve_recoverable(&p, None).expect_err("both rungs are failed");
        assert!(err.to_string().contains("every ladder rung"), "got {err}");
    }
}
