//! A cheap thermal surrogate built from the multigrid hierarchy's coarse
//! levels.
//!
//! Design-space searches spend most of their time rejecting designs whose
//! peak temperature is far from the budget; a full fine-grid solve for
//! those is wasted precision. The surrogate solves the *coarse* Galerkin
//! operators of the V-cycle hierarchy (levels 1 and 2: quarter and
//! sixteenth of the fine cell count) in their own right and extrapolates:
//!
//! * `p1`, `p2` — per-layer peaks of the level-1 and level-2 solutions;
//! * estimate `p1 + (p1 - p2)` — one step of Richardson extrapolation
//!   under the observed first-order convergence of the aggregation error;
//! * bound `BOUND_FLOOR_C + BOUND_SAFETY * |p1 - p2|` — a *calibrated*
//!   error bound: the two-level disagreement measures the local truncation
//!   error, and the safety factor (validated by the propcheck suite against
//!   exact solves over random stacks and power maps) covers the cases
//!   where the error is not quite halving per level.
//!
//! Both coarse systems are solved by CG preconditioned with the V-cycle of
//! their own sub-hierarchy ([`crate::multigrid::Multigrid::vcycle_from`]),
//! so the surrogate inherits the solver's grid-size-independent iteration
//! counts. On hierarchies too shallow for two coarse levels (tiny grids,
//! where exact solves are already cheap) the surrogate degrades to an
//! exact fine solve with the floor bound.
//!
//! The surrogate is a *screening* device: callers must treat
//! `[estimate - bound, estimate + bound]` as the uncertainty interval and
//! fall back to [`crate::ThermalModel::solve`] whenever a decision depends
//! on where inside that interval the true peak lies.

use crate::model;
use crate::multigrid::{MgScratch, Multigrid, Network};
use crate::power::PowerMap;
use crate::solver::{self, CgOutcome, CgScratch, Tolerance};
use crate::workspace::{with_workspace, Workspace};

use std::sync::Arc;

/// Floor on the reported error bound, °C. Covers solver tolerance and
/// rounding differences between the surrogate's CG path and the exact
/// solver's, and the degenerate case where the two coarse solutions agree
/// by accident.
const BOUND_FLOOR_C: f64 = 0.05;

/// Safety factor on the two-level disagreement. Richardson extrapolation
/// with exactly first-order error would need 1.0; the measured error decay
/// on heterogeneous stacks wobbles around first order, and sub-coarse-cell
/// hot spots (sources smaller than a level-1 cell) smooth out faster than
/// the extrapolation predicts. Calibration sweeps over the propcheck design
/// distribution (random 2D/3D stacks, conductivities, convection, and
/// power maps, including sources below one coarse cell) observed a worst
/// error of ~5.3x the two-level gap; 8.0 keeps the bound valid with margin.
const BOUND_SAFETY: f64 = 8.0;

/// Relative CG tolerance for the coarse solves — looser than the exact
/// solver's 1e-9 because the aggregation error dominates long before this.
const SURROGATE_CG_REL: f64 = 1e-8;

/// Iteration cap for the coarse solves.
const SURROGATE_CG_MAX_ITERS: usize = 5_000;

/// The cheap coarse-level solver derived from one [`crate::ThermalModel`]
/// via [`crate::ThermalModel::surrogate`]. Reusable across any number of
/// power maps, from multiple threads; each query solves in the calling
/// thread's workspace.
#[derive(Debug)]
pub struct Surrogate {
    /// The multigrid hierarchy, shared with the source model when it has
    /// one.
    pub(crate) mg: Arc<Multigrid>,
    /// The level the reported field lives on (1, or 0 on shallow
    /// hierarchies where the surrogate is exact).
    l1: usize,
    /// The extrapolation level (`l1 + 1`; unused when `l1 == 0`).
    l2: usize,
    /// The level-`l1` and level-`l2` operators in natural order, for the
    /// mat-vec of their CG (the hierarchy's levels are parity-split).
    op1: Network,
    op2: Option<Network>,
    /// Ambient right-hand-side contribution (`gamb * T_amb` on the top
    /// layer) restricted to level `l1`. The level-`l2` system restricts
    /// the whole `l1` right-hand side, so no second copy is needed.
    amb1: Vec<f64>,
    fine_nx: usize,
    fine_ny: usize,
    nl: usize,
    /// Pool-lane cap inherited from the source model (see
    /// [`crate::ThermalModel::set_parallel_lanes`]); results are
    /// bit-identical for any value.
    lanes: usize,
}

/// One surrogate query result: the coarse temperature field plus the
/// extrapolated per-layer peaks and the calibrated error bound.
#[derive(Debug, Clone)]
pub struct SurrogateSolution {
    /// Level-`l1` cell temperatures, bottom layer first.
    temps1: Vec<f64>,
    /// Richardson-extrapolated peak estimate per layer, °C.
    layer_est_c: Vec<f64>,
    bound_c: f64,
    nx1: usize,
    ny1: usize,
    nl: usize,
    /// Fine cells per coarse cell along each axis (`2^l1`).
    scale: usize,
}

impl SurrogateSolution {
    /// Estimated peak temperature of one layer, °C.
    ///
    /// # Panics
    ///
    /// Panics if the layer index is out of range.
    pub fn layer_peak_c(&self, layer_idx: usize) -> f64 {
        self.layer_est_c[layer_idx]
    }

    /// Estimated peak temperature across all layers, °C.
    pub fn peak_c(&self) -> f64 {
        self.layer_est_c.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The calibrated error bound, °C: the exact fine-grid peak (of the
    /// same linear system) lies within `peak ± bound` for the design
    /// distributions the bound was calibrated on.
    pub fn bound_c(&self) -> f64 {
        self.bound_c
    }

    /// Mean temperature over a sub-rectangle of **fine-grid** cells in one
    /// layer, °C. The fine ranges are mapped to the covering coarse cells,
    /// so callers use the same cell coordinates as with
    /// [`crate::ThermalField::region_mean_c`].
    ///
    /// # Panics
    ///
    /// Panics if the ranges are empty or out of the fine grid's bounds.
    pub fn region_mean_c(
        &self,
        layer_idx: usize,
        ix0: usize,
        ix1: usize,
        iy0: usize,
        iy1: usize,
    ) -> f64 {
        assert!(layer_idx < self.nl, "layer index out of range");
        assert!(ix0 < ix1 && iy0 < iy1, "empty region");
        let cx0 = (ix0 / self.scale).min(self.nx1 - 1);
        let cx1 = ix1.div_ceil(self.scale).clamp(cx0 + 1, self.nx1);
        let cy0 = (iy0 / self.scale).min(self.ny1 - 1);
        let cy1 = iy1.div_ceil(self.scale).clamp(cy0 + 1, self.ny1);
        let plane = self.ny1 * self.nx1;
        let l = &self.temps1[layer_idx * plane..(layer_idx + 1) * plane];
        let mut sum = 0.0;
        for iy in cy0..cy1 {
            for ix in cx0..cx1 {
                sum += l[iy * self.nx1 + ix];
            }
        }
        sum / ((cx1 - cx0) * (cy1 - cy0)) as f64
    }
}

impl Surrogate {
    /// Builds the surrogate from a model's conductance network. When the
    /// model already carries a multigrid hierarchy it is shared; otherwise
    /// (small grids on the Jacobi path) one is built here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_network(
        nx: usize,
        ny: usize,
        nl: usize,
        gx: &[f64],
        gy: &[f64],
        gz: &[f64],
        diag: &[f64],
        gamb: &[f64],
        ambient_c: f64,
        mg: Option<Arc<Multigrid>>,
        lanes: usize,
    ) -> Self {
        let mg = mg.unwrap_or_else(|| Arc::new(Multigrid::build(nx, ny, nl, gx, gy, gz, diag)));
        let depth = mg.num_levels();
        let (l1, l2) = if depth >= 3 { (1, 2) } else { (0, 0) };

        // The ambient anchor `gamb * T_amb` lives on the fine top layer;
        // restriction is plain aggregate summation, so it can be folded
        // down once at build time.
        let mut amb0 = vec![0.0; nl * ny * nx];
        let top = (nl - 1) * ny * nx;
        for (dst, &g) in amb0[top..].iter_mut().zip(gamb) {
            *dst = g * ambient_c;
        }
        let amb1 = if l1 == 0 {
            amb0
        } else {
            let mut a1 = vec![0.0; mg.level(l1).n()];
            with_workspace(|ws| mg.restrict_natural(0, &amb0, &mut a1, &mut ws.mg, lanes, 1));
            a1
        };
        let op1 = mg.level(l1).network();
        let op2 = (l1 > 0).then(|| mg.level(l2).network());
        Self {
            mg,
            l1,
            l2,
            op1,
            op2,
            amb1,
            fine_nx: nx,
            fine_ny: ny,
            nl,
            lanes: lanes.max(1),
        }
    }

    /// Which multigrid level the reported field lives on (0 means the
    /// hierarchy was too shallow and the surrogate solves exactly).
    pub fn field_level(&self) -> usize {
        self.l1
    }

    /// Solves the coarse systems for `power` (a **fine-grid** power map)
    /// and returns the extrapolated solution.
    ///
    /// # Panics
    ///
    /// Panics if `power` was created for a different grid, or if the
    /// coarse CG fails to converge (malformed stack).
    pub fn solve(&self, power: &PowerMap) -> SurrogateSolution {
        self.solve_all(&[power]).remove(0)
    }

    /// Solves the coarse systems for **two** fine-grid power maps through
    /// one batched CG per level, sharing every stencil sweep and V-cycle
    /// between the pair. Built for `screen()`-style lower/upper bound
    /// pairs: each returned solution is bit-identical to [`Surrogate::solve`]
    /// on that map alone, so callers' verdicts cannot change.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Surrogate::solve`], for either map.
    pub fn solve_pair(
        &self,
        low: &PowerMap,
        high: &PowerMap,
    ) -> (SurrogateSolution, SurrogateSolution) {
        let mut both = self.solve_all(&[low, high]);
        let high = both.pop().expect("one solution per map");
        (both.pop().expect("one solution per map"), high)
    }

    /// The surrogate solutions of k power maps: one batched CG per coarse
    /// level over all of them.
    fn solve_all(&self, powers: &[&PowerMap]) -> Vec<SurrogateSolution> {
        let k = powers.len();
        let n_fine = self.nl * self.fine_ny * self.fine_nx;
        for power in powers {
            assert_eq!(power.watts.len(), n_fine, "power map does not match this surrogate's grid");
        }
        let lvl1 = self.mg.level(self.l1);
        let n1 = lvl1.n();
        // Zero initial iterates: deterministic, and the V-cycle
        // preconditioner makes the start point nearly irrelevant.
        let mut x1 = vec![0.0; n1 * k];
        let x2 = with_workspace(|ws| {
            // Right-hand sides at l1: restricted injected power + ambient
            // anchor.
            self.fill_rhs1(powers, ws);
            let Workspace { cg, mg: mgs, rhs: rhs1, rhs2, .. } = ws;
            self.coarse_solve(self.l1, &self.op1, rhs1, &mut x1, k, cg, mgs);
            self.op2.as_ref().map(|op2| {
                let n2 = self.mg.level(self.l2).n();
                rhs2.clear();
                rhs2.resize(n2 * k, 0.0);
                self.mg.restrict_natural(self.l1, rhs1, rhs2, mgs, self.lanes, k);
                let mut x2 = vec![0.0; n2 * k];
                self.coarse_solve(self.l2, op2, rhs2, &mut x2, k, cg, mgs);
                solver::split_systems(x2, k)
            })
        });

        let (nx1, ny1, _) = lvl1.dims();
        solver::split_systems(x1, k)
            .into_iter()
            .enumerate()
            .map(|(sy, temps1)| {
                let p1 = layer_peaks(&temps1, nx1 * ny1, self.nl);
                let (layer_est_c, bound_c) = match &x2 {
                    None => (p1, BOUND_FLOOR_C),
                    Some(x2) => {
                        let (nx2, ny2, _) = self.mg.level(self.l2).dims();
                        let p2 = layer_peaks(&x2[sy], nx2 * ny2, self.nl);
                        let max_gap =
                            p1.iter().zip(&p2).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
                        let est: Vec<f64> = p1.iter().zip(&p2).map(|(a, b)| a + (a - b)).collect();
                        (est, BOUND_FLOOR_C + BOUND_SAFETY * max_gap)
                    }
                };
                SurrogateSolution {
                    temps1,
                    layer_est_c,
                    bound_c,
                    nx1,
                    ny1,
                    nl: self.nl,
                    scale: 1 << self.l1,
                }
            })
            .collect()
    }

    /// CG on the level-`li` operator `op` for k interleaved right-hand
    /// sides, preconditioned by the sub-hierarchy V-cycle from that level
    /// down. Records the solves' CG iterations and V-cycles, plus the batch
    /// when k > 1.
    #[allow(clippy::too_many_arguments)]
    fn coarse_solve(
        &self,
        li: usize,
        op: &Network,
        b: &[f64],
        x: &mut [f64],
        k: usize,
        cg: &mut CgScratch,
        mgs: &mut MgScratch,
    ) {
        let n = self.mg.level(li).n();
        let tols = vec![Tolerance { rel: SURROGATE_CG_REL, max_iters: SURROGATE_CG_MAX_ITERS }; k];
        let result = solver::preconditioned_cg(
            |v, out, kw| op.apply(v, out, self.lanes, kw),
            |r, z, kw| self.mg.vcycle_from(li, r, z, mgs, self.lanes, kw),
            b,
            x,
            n,
            &tols,
            cg,
            self.lanes,
        );
        for outcome in &result.outcomes {
            if let CgOutcome::MaxIterations { residual } = outcome {
                panic!("surrogate CG failed to converge at level {li} (residual {residual:e})")
            }
        }
        model::VCYCLES.add(result.precond_calls);
        for outcome in &result.outcomes {
            model::CG_ITERS.record(outcome.stats(SURROGATE_CG_MAX_ITERS).0 as u64);
        }
        if k > 1 {
            model::record_batch(n, "surrogate", &result, &tols);
        }
    }

    /// Fills `ws.rhs` with the level-`l1` right-hand sides of `powers`,
    /// interleaved `[node][rhs]`: restricted injected power plus the
    /// precomputed ambient anchor. Each map is restricted on its own (into
    /// `ws.planes` when there are several) and then interleaved.
    fn fill_rhs1(&self, powers: &[&PowerMap], ws: &mut Workspace) {
        let n1 = self.mg.level(self.l1).n();
        let planes = if powers.len() == 1 { &mut ws.rhs } else { &mut ws.planes };
        planes.clear();
        planes.resize(n1 * powers.len(), 0.0);
        for (plane, power) in planes.chunks_exact_mut(n1).zip(powers) {
            if self.l1 == 0 {
                plane.copy_from_slice(&power.watts);
            } else {
                self.mg.restrict_natural(0, &power.watts, plane, &mut ws.mg, self.lanes, 1);
            }
            for (r, &a) in plane.iter_mut().zip(&self.amb1) {
                *r += a;
            }
        }
        if powers.len() > 1 {
            let planes: Vec<Option<&[f64]>> = ws.planes.chunks_exact(n1).map(Some).collect();
            solver::interleave(&planes, n1, 0.0, &mut ws.rhs);
        }
    }
}

/// Per-layer maxima of a level field with `plane` cells per layer.
fn layer_peaks(x: &[f64], plane: usize, nl: usize) -> Vec<f64> {
    (0..nl)
        .map(|l| x[l * plane..(l + 1) * plane].iter().copied().fold(f64::NEG_INFINITY, f64::max))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::{Rect, StackBuilder, ThermalModel};

    fn production_model(n: usize) -> ThermalModel {
        let chips: Vec<(Rect, f64)> = (0..4)
            .map(|i| {
                let x = 1.0e-3 + f64::from(i % 2) * 3.4e-3;
                let y = 1.0e-3 + f64::from(i / 2) * 3.4e-3;
                (Rect::new(x, y, 2.4e-3, 2.4e-3), 120.0)
            })
            .collect();
        StackBuilder::new(8e-3, 8e-3, n, n)
            .layer("interposer", 100e-6, 120.0)
            .layer_with_patches("device", 150e-6, 0.9, chips)
            .layer("tim", 65e-6, 1.2)
            .layer("lid", 300e-6, 200.0)
            .convection(0.4, 45.0)
            .build()
    }

    #[test]
    fn surrogate_peak_within_bound_of_exact() {
        let m = production_model(64);
        let sur = m.surrogate();
        let mut p = m.zero_power();
        p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 3.0);
        p.add_uniform_rect(1, Rect::new(4.4e-3, 4.4e-3, 2.4e-3, 2.4e-3), 2.0);
        let exact = m.solve(&p);
        let est = sur.solve(&p);
        for l in 0..m.num_layers() {
            let err = (exact.layer_peak_c(l) - est.layer_peak_c(l)).abs();
            assert!(
                err <= est.bound_c(),
                "layer {l}: exact {} vs est {} (bound {})",
                exact.layer_peak_c(l),
                est.layer_peak_c(l),
                est.bound_c()
            );
        }
    }

    #[test]
    fn surrogate_is_deterministic_and_reusable() {
        let m = production_model(64);
        let sur = m.surrogate();
        let mut p1 = m.zero_power();
        p1.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 3.0);
        let mut p2 = m.zero_power();
        p2.add_uniform_rect(1, Rect::new(4.4e-3, 4.4e-3, 2.4e-3, 2.4e-3), 5.0);
        let a = sur.solve(&p1);
        let _ = sur.solve(&p2);
        let b = sur.solve(&p1);
        assert_eq!(a.peak_c(), b.peak_c(), "scratch reuse must be invisible");
        assert_eq!(a.bound_c(), b.bound_c());
    }

    #[test]
    fn region_means_track_exact_solution() {
        let m = production_model(64);
        let sur = m.surrogate();
        let mut p = m.zero_power();
        p.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 3.0);
        let exact = m.solve(&p);
        let est = sur.solve(&p);
        // The powered chiplet's cell footprint on the 64x64 grid.
        let (ix0, ix1, iy0, iy1) = (8, 28, 8, 28);
        let te = exact.region_mean_c(1, ix0, ix1, iy0, iy1);
        let ts = est.region_mean_c(1, ix0, ix1, iy0, iy1);
        assert!(
            (te - ts).abs() <= est.bound_c().max(1.0),
            "region mean drifted: exact {te} vs surrogate {ts}"
        );
    }

    #[test]
    fn paired_solves_match_single_bit_for_bit() {
        for lanes in [1usize, 2, 8] {
            let mut m = production_model(64);
            m.set_parallel_lanes(lanes);
            let sur = m.surrogate();
            let mut lo = m.zero_power();
            lo.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 1.5);
            let mut hi = m.zero_power();
            hi.add_uniform_rect(1, Rect::new(1.0e-3, 1.0e-3, 2.4e-3, 2.4e-3), 3.0);
            hi.add_uniform_rect(1, Rect::new(4.4e-3, 4.4e-3, 2.4e-3, 2.4e-3), 2.0);
            let (a, b) = sur.solve_pair(&lo, &hi);
            let sa = sur.solve(&lo);
            let sb = sur.solve(&hi);
            for (got, want) in [(&a, &sa), (&b, &sb)] {
                assert_eq!(got.temps1.len(), want.temps1.len());
                for (u, v) in got.temps1.iter().zip(&want.temps1) {
                    assert_eq!(u.to_bits(), v.to_bits(), "lanes {lanes}: field diverged");
                }
                for (u, v) in got.layer_est_c.iter().zip(&want.layer_est_c) {
                    assert_eq!(u.to_bits(), v.to_bits(), "lanes {lanes}: estimate diverged");
                }
                assert_eq!(got.bound_c.to_bits(), want.bound_c.to_bits());
            }
        }
    }

    #[test]
    fn paired_shallow_path_matches_single() {
        let m = StackBuilder::new(4e-3, 4e-3, 8, 8)
            .layer("die", 150e-6, 120.0)
            .layer("lid", 300e-6, 200.0)
            .convection(0.4, 45.0)
            .build();
        let sur = m.surrogate();
        assert_eq!(sur.field_level(), 0);
        let mut lo = m.zero_power();
        lo.add_uniform_rect(0, Rect::new(0.5e-3, 0.5e-3, 2e-3, 2e-3), 0.5);
        let mut hi = m.zero_power();
        hi.add_uniform_rect(0, Rect::new(0.5e-3, 0.5e-3, 2e-3, 2e-3), 1.5);
        let (a, b) = sur.solve_pair(&lo, &hi);
        let (sa, sb) = (sur.solve(&lo), sur.solve(&hi));
        assert_eq!(a.peak_c().to_bits(), sa.peak_c().to_bits());
        assert_eq!(b.peak_c().to_bits(), sb.peak_c().to_bits());
        assert_eq!(a.bound_c.to_bits(), sa.bound_c.to_bits());
        assert_eq!(b.bound_c.to_bits(), sb.bound_c.to_bits());
    }

    #[test]
    fn shallow_hierarchy_falls_back_to_exact() {
        // An 8x8 grid coarsens once at most: the surrogate solves exactly.
        let m = StackBuilder::new(4e-3, 4e-3, 8, 8)
            .layer("die", 150e-6, 120.0)
            .layer("lid", 300e-6, 200.0)
            .convection(0.4, 45.0)
            .build();
        let sur = m.surrogate();
        assert_eq!(sur.field_level(), 0);
        let mut p = m.zero_power();
        p.add_uniform_rect(0, Rect::new(0.5e-3, 0.5e-3, 2e-3, 2e-3), 1.5);
        let exact = m.solve(&p);
        let est = sur.solve(&p);
        assert!((exact.peak_c() - est.peak_c()).abs() <= est.bound_c());
    }
}
