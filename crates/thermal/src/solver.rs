//! Preconditioned conjugate gradient for the SPD conductance system, over
//! one or more right-hand sides.
//!
//! [`preconditioned_cg`] advances k *independent* CG recurrences in
//! lockstep — per-system alpha/beta/residual, NOT block CG — sharing one
//! operator sweep and one preconditioner application per iteration. Vectors
//! are interleaved `[node][rhs]` (element (i, s) lives at `i * k + s`), so
//! one pass over the coefficient arrays serves every active right-hand
//! side. A single solve is the k = 1 call of the same engine.
//!
//! The preconditioner is a closure `z = M^{-1} r`, so the same loop serves
//! both the Jacobi (diagonal) preconditioner and the multigrid V-cycle used
//! on production-size grids. All per-solve vectors live in a caller-owned
//! [`CgScratch`] so hot loops (leakage co-iteration, annealing sweeps) do
//! not allocate per solve.
//!
//! # Retirement
//!
//! A system retires the iteration it converges (or exhausts its own
//! iteration cap). Its final iterate is left in the caller's buffer and
//! the working vectors are compacted to the surviving width, so every
//! right-hand side performs the arithmetic sequence of a solve of that
//! system alone. Retirement is pure data movement (no float ops), so
//! compaction cannot perturb survivors. The iterates live in the caller's
//! buffer until the first retirement that leaves survivors, so a
//! single-system solve never copies its iterate.
//!
//! # Parallel reductions, deterministically
//!
//! On systems of at least [`REDUCE_MIN`] unknowns the dot products and the
//! fused `x`/`r`/`‖r‖²` update run on the persistent
//! [`tesa_util::pool`] with **fixed-chunk partial sums**: each system's
//! vector is cut at multiples of [`REDUCE_CHUNK`] nodes (a pure function of
//! `n`, never of the lane count or the batch width), each chunk's partial
//! is accumulated in node order, and the partials are added in chunk order.
//! Any `TESA_THREADS` — including 1 — and any batch width therefore produce
//! bit-identical results. Below `REDUCE_MIN` (which covers the
//! golden-pinned 32-cell grids) each system keeps the single-accumulator
//! node-order reduction, so small systems are bit-exact with every
//! previous release.

/// Convergence criteria for the CG solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tolerance {
    /// Stop when `||r|| <= rel * ||b||`.
    pub rel: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self { rel: 1e-9, max_iters: 20_000 }
    }
}

/// Result of a CG run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CgOutcome {
    /// Converged within tolerance; `residual` is the final 2-norm.
    Converged { iterations: usize, residual: f64 },
    /// Hit the iteration cap; `residual` is the final 2-norm.
    MaxIterations { residual: f64 },
}

impl CgOutcome {
    /// `(iterations, final residual)` regardless of outcome.
    pub(crate) fn stats(&self, max_iters: usize) -> (usize, f64) {
        match *self {
            CgOutcome::Converged { iterations, residual } => (iterations, residual),
            CgOutcome::MaxIterations { residual } => (max_iters, residual),
        }
    }
}

/// Fixed reduction chunk length. Chunk boundaries are multiples of this,
/// i.e. a pure function of the vector length — never of the lane count —
/// which is what makes the parallel reductions bit-identical for any
/// `TESA_THREADS` (see the module docs).
pub(crate) const REDUCE_CHUNK: usize = 4096;

/// Systems below this many unknowns keep the historical single-accumulator
/// reduction (bit-exact with the pre-pool solver). The golden-pinned
/// 32-cell grids stay under this gate (32·32·6 = 6144 nodes at most), so
/// their fields are unchanged to the last bit; production 64-cell grids
/// (≥ 16384 unknowns) take the chunked path.
pub(crate) const REDUCE_MIN: usize = 2 * REDUCE_CHUNK;

/// Effective width of a kernel monomorphized at const `KW`: `KW == 0` is
/// the dynamic-width fallback, any other `KW` is a compile-time constant,
/// so the `[node][rhs]` inner loops unroll and vectorize instead of
/// running a scalar loop with an unknown trip count. The arithmetic (ops,
/// operand order, accumulation order) is identical either way — only the
/// code the optimizer can generate differs — so specialization cannot
/// perturb bit-identity.
#[inline(always)]
pub(crate) const fn eff_width(kw: usize, k: usize) -> usize {
    if kw == 0 {
        k
    } else {
        kw
    }
}

/// Calls a width-generic kernel with the monomorphization for `k` when
/// `k <= 8` (every width reachable by retirement from a batch of 8), or
/// the dynamic `KW = 0` fallback for wider batches — those still run
/// correctly, just without unrolled inner loops, and pick up the
/// specialized code as retirement shrinks them into range.
macro_rules! dispatch_width {
    ($k:expr, $self:ident.$f:ident($($arg:expr),* $(,)?)) => {
        match $k {
            1 => $self.$f::<1>($($arg),*),
            2 => $self.$f::<2>($($arg),*),
            3 => $self.$f::<3>($($arg),*),
            4 => $self.$f::<4>($($arg),*),
            5 => $self.$f::<5>($($arg),*),
            6 => $self.$f::<6>($($arg),*),
            7 => $self.$f::<7>($($arg),*),
            8 => $self.$f::<8>($($arg),*),
            _ => $self.$f::<0>($($arg),*),
        }
    };
    ($k:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $k {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            _ => $f::<0>($($arg),*),
        }
    };
}
pub(crate) use dispatch_width;

/// Result of one CG run over k systems.
#[derive(Debug, Clone)]
pub(crate) struct CgResult {
    /// Per-system outcome, indexed like the input tolerances.
    pub outcomes: Vec<CgOutcome>,
    /// Number of operator sweeps performed (initial residual plus one per
    /// lockstep iteration) — the shared work a batch amortizes.
    pub fused_sweeps: u64,
    /// Number of preconditioner applications, each covering every system
    /// still active at that point.
    pub precond_calls: u64,
}

/// Reusable working vectors of one solve, interleaved at the active
/// width. They only grow: a solve works on prefixes and writes every
/// element before reading it, so reuse needs no clearing or refilling.
#[derive(Debug, Default)]
pub(crate) struct CgScratch {
    /// Survivors' iterates once a retirement has compacted the batch.
    packed: Vec<f64>,
    /// Residual.
    r: Vec<f64>,
    /// Search direction.
    p: Vec<f64>,
    /// The preconditioned residual `z`, then `A p`: within an iteration
    /// `z` is dead once the direction is updated, before `A p` is formed.
    zq: Vec<f64>,
    partials: Vec<f64>,
}

impl CgScratch {
    fn ensure(&mut self, len: usize) {
        for v in [&mut self.r, &mut self.p, &mut self.zq] {
            grow(v, len);
        }
    }
}

/// Grows `v` to at least `len` elements; never shrinks it.
pub(crate) fn grow(v: &mut Vec<f64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Per-system accumulation of interleaved products: `acc[s] +=
/// a[i*k+s] * b[i*k+s]` in ascending node order. Width-specialized via
/// [`dispatch_width!`].
fn dot_into<const KW: usize>(a: &[f64], b: &[f64], k: usize, acc: &mut [f64]) {
    let k = eff_width(KW, k);
    let acc = &mut acc[..k];
    for (av, bv) in a.chunks_exact(k).zip(b.chunks_exact(k)) {
        for s in 0..k {
            acc[s] += av[s] * bv[s];
        }
    }
}

/// Per-system deterministic dot products over interleaved vectors: the
/// [`REDUCE_MIN`] gate and the [`REDUCE_CHUNK`] boundaries are applied to
/// the per-system node count `n` (see the module docs).
fn dot_det(
    a: &[f64],
    b: &[f64],
    n: usize,
    k: usize,
    out: &mut Vec<f64>,
    partials: &mut Vec<f64>,
    lanes: usize,
) {
    out.clear();
    out.resize(k, 0.0);
    if n < REDUCE_MIN {
        dispatch_width!(k, dot_into(a, b, k, out));
        return;
    }
    let nchunks = n.div_ceil(REDUCE_CHUNK);
    partials.clear();
    partials.resize(nchunks * k, 0.0);
    let slots: Vec<&mut [f64]> = partials.chunks_mut(k).collect();
    tesa_util::pool::global().scatter(lanes, slots, |c, slot| {
        let lo = c * REDUCE_CHUNK * k;
        let hi = (lo + REDUCE_CHUNK * k).min(n * k);
        dispatch_width!(k, dot_into(&a[lo..hi], &b[lo..hi], k, slot));
    });
    for chunk in partials.chunks(k) {
        for s in 0..k {
            out[s] += chunk[s];
        }
    }
}

/// Splits `v` into `REDUCE_CHUNK * k`-element `&mut` sub-slices — the
/// interleaved image of the per-system node-chunk grid.
fn chunks_mut(v: &mut [f64], k: usize) -> Vec<&mut [f64]> {
    let step = REDUCE_CHUNK * k;
    let mut rest = v;
    let mut out = Vec::with_capacity(rest.len().div_ceil(step.max(1)));
    while !rest.is_empty() {
        let take = step.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        out.push(head);
        rest = tail;
    }
    out
}

/// One chunk of the fused update `x += alpha p; r -= alpha ap`; `acc[s]`
/// accumulates each system's `||r||^2` contribution in node order.
/// Width-specialized via [`dispatch_width!`].
fn fused_into<const KW: usize>(
    x: &mut [f64],
    r: &mut [f64],
    p: &[f64],
    ap: &[f64],
    alpha: &[f64],
    k: usize,
    acc: &mut [f64],
) {
    let k = eff_width(KW, k);
    let (alpha, acc) = (&alpha[..k], &mut acc[..k]);
    for (((xv, rv), pv), apv) in x
        .chunks_exact_mut(k)
        .zip(r.chunks_exact_mut(k))
        .zip(p.chunks_exact(k))
        .zip(ap.chunks_exact(k))
    {
        for s in 0..k {
            xv[s] += alpha[s] * pv[s];
            rv[s] -= alpha[s] * apv[s];
            acc[s] += rv[s] * rv[s];
        }
    }
}

/// One scatter work item of the fused update: chunk index, its partial-sum
/// slot, and the `x`/`r` chunks it advances.
type FusedChunk<'a> = (usize, &'a mut [f64], &'a mut [f64], &'a mut [f64]);

/// Fused CG update `x += alpha p; r -= alpha ap` writing each system's new
/// `||r||^2` to `out` — the per-system chunk grid of [`dot_det`], so the
/// stopping test needs no separate norm pass.
#[allow(clippy::too_many_arguments)]
fn fused_update_det(
    x: &mut [f64],
    r: &mut [f64],
    p: &[f64],
    ap: &[f64],
    alpha: &[f64],
    n: usize,
    k: usize,
    out: &mut Vec<f64>,
    partials: &mut Vec<f64>,
    lanes: usize,
) {
    out.clear();
    out.resize(k, 0.0);
    if n < REDUCE_MIN {
        dispatch_width!(k, fused_into(x, r, p, ap, alpha, k, out));
        return;
    }
    let nchunks = n.div_ceil(REDUCE_CHUNK);
    partials.clear();
    partials.resize(nchunks * k, 0.0);
    let items: Vec<FusedChunk> = partials
        .chunks_mut(k)
        .zip(chunks_mut(x, k))
        .zip(chunks_mut(r, k))
        .enumerate()
        .map(|(c, ((slot, xc), rc))| (c, slot, xc, rc))
        .collect();
    tesa_util::pool::global().scatter(lanes, items, |_, (c, slot, xc, rc)| {
        let lo = c * REDUCE_CHUNK * k;
        let pc = &p[lo..lo + xc.len()];
        let apc = &ap[lo..lo + xc.len()];
        dispatch_width!(k, fused_into(xc, rc, pc, apc, alpha, k, slot));
    });
    for chunk in partials.chunks(k) {
        for s in 0..k {
            out[s] += chunk[s];
        }
    }
}

/// One chunk of the per-system direction update `p = z + beta[s] p` over
/// interleaved vectors. Width-specialized via [`dispatch_width!`].
fn beta_chunk<const KW: usize>(pc: &mut [f64], zc: &[f64], beta: &[f64], k: usize) {
    let k = eff_width(KW, k);
    let beta = &beta[..k];
    for (pv, zv) in pc.chunks_exact_mut(k).zip(zc.chunks_exact(k)) {
        for s in 0..k {
            pv[s] = zv[s] + beta[s] * pv[s];
        }
    }
}

/// Per-system direction update `p = z + beta[s] p`. Element-independent,
/// so any chunking is bit-identical; parallel above [`REDUCE_MIN`].
fn beta_update(p: &mut [f64], z: &[f64], beta: &[f64], n: usize, k: usize, lanes: usize) {
    if n < REDUCE_MIN {
        dispatch_width!(k, beta_chunk(p, z, beta, k));
        return;
    }
    let items: Vec<(usize, &mut [f64])> = chunks_mut(p, k).into_iter().enumerate().collect();
    tesa_util::pool::global().scatter(lanes, items, |_, (c, pc)| {
        let lo = c * REDUCE_CHUNK * k;
        dispatch_width!(k, beta_chunk(pc, &z[lo..lo + pc.len()], beta, k));
    });
}

/// Jacobi preconditioner closure over the matrix diagonal: `z = r / diag`
/// for every system of a `[node][rhs]` interleaved vector.
pub(crate) fn jacobi(diag: &[f64]) -> impl FnMut(&[f64], &mut [f64], usize) + '_ {
    move |r, z, k| dispatch_width!(k, jacobi_into(diag, r, z, k))
}

/// The body of [`jacobi`], width-specialized via [`dispatch_width!`].
fn jacobi_into<const KW: usize>(diag: &[f64], r: &[f64], z: &mut [f64], k: usize) {
    let k = eff_width(KW, k);
    for ((zc, rc), &d) in z.chunks_exact_mut(k).zip(r.chunks_exact(k)).zip(diag) {
        for s in 0..k {
            zc[s] = rc[s] / d;
        }
    }
}

/// Removes the lanes not in `keep` (ascending) from the first `n * k_old`
/// elements of an interleaved vector, compacting them in place to the
/// surviving width. Pure moves, no float ops.
fn compact_lanes(v: &mut [f64], n: usize, k_old: usize, keep: &[usize]) {
    let k_new = keep.len();
    for i in 0..n {
        let (src, dst) = (i * k_old, i * k_new);
        for (j, &s) in keep.iter().enumerate() {
            v[dst + j] = v[src + s];
        }
    }
}

/// Removes the per-lane scalar slots not in `keep` (ascending).
fn compact_scalars(v: &mut Vec<f64>, keep: &[usize]) {
    for (j, &s) in keep.iter().enumerate() {
        v[j] = v[s];
    }
    v.truncate(keep.len());
}

/// Interleaves k systems of `n` nodes into `out` in `[node][rhs]` order;
/// a `None` system holds `fill` at every node. A single system is one
/// copy (or fill).
pub(crate) fn interleave(systems: &[Option<&[f64]>], n: usize, fill: f64, out: &mut Vec<f64>) {
    out.clear();
    match systems {
        [Some(one)] => out.extend_from_slice(one),
        [None] => out.resize(n, fill),
        _ => {
            out.reserve(n * systems.len());
            for i in 0..n {
                out.extend(systems.iter().map(|s| s.map_or(fill, |s| s[i])));
            }
        }
    }
}

/// Splits a `[node][rhs]` interleaved vector of `k` systems into one
/// vector per system. A single system is moved, not copied.
pub(crate) fn split_systems(xs: Vec<f64>, k: usize) -> Vec<Vec<f64>> {
    if k == 1 {
        return vec![xs];
    }
    (0..k).map(|s| xs.iter().skip(s).step_by(k).copied().collect()).collect()
}

/// Solves `A x_s = b_s` for `k` right-hand sides through `k` independent
/// CG recurrences advanced in lockstep, sharing one operator sweep and
/// one preconditioner application per iteration.
///
/// `b` and `xs` are interleaved `[node][rhs]` at width `k = tols.len()`
/// (element `(i, s)` at `i * k + s`); `xs` holds the initial guesses on
/// entry and every system's solution on exit. `apply` (`y = A x`) and
/// `precond` (`z = M^{-1} r`) receive the *current active width* as their
/// third argument — systems retire (and the working vectors compact) the
/// iteration they converge or exhaust their per-system `max_iters`.
/// `lanes` caps how many pool lanes the engine's own reductions may use
/// (the closures manage their own parallelism).
///
/// The stopping test `||r|| <= rel * ||b||` runs before the first
/// iteration and after every update, on a residual norm accumulated inside
/// the `x`/`r` update loop. Every system's solution, residual, and
/// iteration count are bit-identical to a run of that system alone, for
/// any batch size and any lane count (see the module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn preconditioned_cg<A, M>(
    apply: A,
    mut precond: M,
    b: &[f64],
    xs: &mut [f64],
    n: usize,
    tols: &[Tolerance],
    scratch: &mut CgScratch,
    lanes: usize,
) -> CgResult
where
    A: Fn(&[f64], &mut [f64], usize),
    M: FnMut(&[f64], &mut [f64], usize),
{
    let k0 = tols.len();
    assert_eq!(b.len(), n * k0, "rhs length must be n * k");
    assert_eq!(xs.len(), n * k0, "solution length must be n * k");
    let mut result = CgResult { outcomes: Vec::new(), fused_sweeps: 0, precond_calls: 0 };
    if k0 == 0 {
        return result;
    }
    let mut outcomes: Vec<Option<CgOutcome>> = vec![None; k0];

    scratch.ensure(n * k0);
    let CgScratch { packed, r, p, zq, partials } = scratch;
    // The iterates live in `xs` until a retirement leaves survivors, then
    // in `packed` at the surviving width.
    let mut in_place = true;
    // active[s] = original index of working lane s.
    let mut active: Vec<usize> = (0..k0).collect();
    let mut k = k0;

    apply(xs, &mut r[..n * k], k);
    result.fused_sweeps = 1;
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let mut targets = Vec::with_capacity(k);
    dot_det(b, b, n, k, &mut targets, partials, lanes);
    for (s, t) in targets.iter_mut().enumerate() {
        *t = tols[s].rel * t.sqrt().max(f64::MIN_POSITIVE);
    }
    let mut norms = Vec::with_capacity(k);
    dot_det(&r[..n * k], &r[..n * k], n, k, &mut norms, partials, lanes);

    let mut keep: Vec<usize> = Vec::with_capacity(k);
    // Per-system `r.z`, and the alpha-then-beta scratch of one iteration.
    let mut rz: Vec<f64> = Vec::with_capacity(k);
    let mut step: Vec<f64> = Vec::with_capacity(k);
    let mut it = 0usize;
    loop {
        // Retire the systems that converged or exhausted their cap at `it`.
        keep.clear();
        for s in 0..k {
            let residual = norms[s].sqrt();
            let orig = active[s];
            outcomes[orig] = Some(if residual <= targets[s] {
                CgOutcome::Converged { iterations: it, residual }
            } else if it >= tols[orig].max_iters {
                CgOutcome::MaxIterations { residual }
            } else {
                keep.push(s);
                continue;
            });
            if !in_place {
                for i in 0..n {
                    xs[i * k0 + orig] = packed[i * k + s];
                }
            }
        }
        if keep.is_empty() {
            break;
        }
        if keep.len() != k {
            if in_place {
                packed.clear();
                for i in 0..n {
                    packed.extend(keep.iter().map(|&s| xs[i * k0 + s]));
                }
                in_place = false;
            } else {
                compact_lanes(packed, n, k, &keep);
            }
            compact_lanes(r, n, k, &keep);
            compact_scalars(&mut targets, &keep);
            if it > 0 {
                compact_lanes(p, n, k, &keep);
                compact_scalars(&mut rz, &keep);
            }
            active = keep.iter().map(|&s| active[s]).collect();
            k = keep.len();
        }
        let w = n * k;
        let x: &mut [f64] = if in_place { &mut *xs } else { &mut packed[..w] };

        // New search direction from the preconditioned residual.
        let z = &mut zq[..w];
        precond(&r[..w], z, k);
        result.precond_calls += 1;
        if it == 0 {
            p[..w].copy_from_slice(z);
            dot_det(&r[..w], z, n, k, &mut rz, partials, lanes);
        } else {
            dot_det(&r[..w], z, n, k, &mut step, partials, lanes);
            for (beta, old) in step.iter_mut().zip(rz.iter_mut()) {
                let new = *beta;
                *beta = new / *old;
                *old = new;
            }
            beta_update(&mut p[..w], z, &step, n, k, lanes);
        }

        // Step along it.
        let ap = &mut zq[..w];
        apply(&p[..w], ap, k);
        result.fused_sweeps += 1;
        dot_det(&p[..w], ap, n, k, &mut step, partials, lanes);
        for (alpha, &rzs) in step.iter_mut().zip(&rz) {
            *alpha = rzs / *alpha;
        }
        fused_update_det(x, &mut r[..w], &p[..w], ap, &step, n, k, &mut norms, partials, lanes);
        it += 1;
    }

    result.outcomes =
        outcomes.into_iter().map(|o| o.expect("every system retires exactly once")).collect();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `A = [[4,1],[1,3]]` in interleaved form (width `k`).
    fn apply_2x2(v: &[f64], out: &mut [f64], k: usize) {
        for s in 0..k {
            out[s] = 4.0 * v[s] + v[k + s];
            out[k + s] = v[s] + 3.0 * v[k + s];
        }
    }

    /// One Jacobi-preconditioned solve of the 2x2 system.
    fn solve_2x2(b: &[f64], x: &mut [f64], tol: Tolerance, scratch: &mut CgScratch) -> CgOutcome {
        preconditioned_cg(apply_2x2, jacobi(&[4.0, 3.0]), b, x, 2, &[tol], scratch, 1).outcomes[0]
    }

    /// A tiny dense SPD system solved against a hand-inverted answer.
    #[test]
    fn solves_small_spd_system() {
        // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
        let mut x = vec![0.0, 0.0];
        let outcome =
            solve_2x2(&[1.0, 2.0], &mut x, Tolerance::default(), &mut CgScratch::default());
        assert!(matches!(outcome, CgOutcome::Converged { .. }));
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-9);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_converges_immediately() {
        let mut x = vec![1.0 / 11.0, 7.0 / 11.0];
        let outcome =
            solve_2x2(&[1.0, 2.0], &mut x, Tolerance::default(), &mut CgScratch::default());
        match outcome {
            CgOutcome::Converged { iterations, .. } => assert!(iterations <= 1),
            CgOutcome::MaxIterations { .. } => panic!("should converge"),
        }
    }

    #[test]
    fn respects_iteration_cap() {
        // Ill-scaled 2x2 still converges fast; force the cap with 0 iters.
        let mut x = vec![0.0, 0.0];
        let outcome = preconditioned_cg(
            |v: &[f64], out: &mut [f64], _k: usize| out.copy_from_slice(v),
            jacobi(&[1.0, 1.0]),
            &[1.0, 1.0],
            &mut x,
            2,
            &[Tolerance { rel: 1e-12, max_iters: 0 }],
            &mut CgScratch::default(),
            1,
        );
        assert!(matches!(outcome.outcomes[0], CgOutcome::MaxIterations { .. }));
    }

    /// The chunked reductions must be bit-identical for every lane count
    /// (the chunk grid depends only on `n`) and numerically equivalent to
    /// the single-accumulator reference.
    #[test]
    fn chunked_reductions_are_lane_count_invariant() {
        let n = REDUCE_MIN + 123; // odd tail chunk on purpose
        let a: Vec<f64> =
            (0..n).map(|i| ((i.wrapping_mul(2654435761)) % 1000) as f64 * 1e-3 - 0.5).collect();
        let b: Vec<f64> =
            (0..n).map(|i| ((i.wrapping_mul(40503)) % 997) as f64 * 1e-3 - 0.3).collect();
        let mut partials = Vec::new();
        let mut reference = Vec::new();
        dot_det(&a, &b, n, 1, &mut reference, &mut partials, 1);
        let mut d = Vec::new();
        for lanes in [2, 3, 8] {
            dot_det(&a, &b, n, 1, &mut d, &mut partials, lanes);
            assert_eq!(d[0].to_bits(), reference[0].to_bits(), "dot differs at lanes={lanes}");
        }
        let serial: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((reference[0] - serial).abs() <= 1e-12 * serial.abs().max(1.0));

        let (mut f1, mut f8) = (Vec::new(), Vec::new());
        let mut x1 = vec![0.0; n];
        let mut r1 = a.clone();
        fused_update_det(&mut x1, &mut r1, &b, &a, &[0.25], n, 1, &mut f1, &mut partials, 1);
        let mut x8 = vec![0.0; n];
        let mut r8 = a.clone();
        fused_update_det(&mut x8, &mut r8, &b, &a, &[0.25], n, 1, &mut f8, &mut partials, 8);
        assert_eq!(f1[0].to_bits(), f8[0].to_bits());
        assert!(x1.iter().zip(&x8).all(|(u, v)| u.to_bits() == v.to_bits()));
        assert!(r1.iter().zip(&r8).all(|(u, v)| u.to_bits() == v.to_bits()));

        let mut p1 = a.clone();
        beta_update(&mut p1, &b, &[0.75], n, 1, 1);
        let mut p8 = a.clone();
        beta_update(&mut p8, &b, &[0.75], n, 1, 8);
        assert!(p1.iter().zip(&p8).all(|(u, v)| u.to_bits() == v.to_bits()));
    }

    /// Interleaved `A = tridiag(-1, 3, -1)` over `k` systems.
    fn tridiag_apply(v: &[f64], out: &mut [f64], k: usize) {
        let n = v.len() / k;
        for i in 0..n {
            for s in 0..k {
                let mut acc = 3.0 * v[i * k + s];
                if i > 0 {
                    acc -= v[(i - 1) * k + s];
                }
                if i + 1 < n {
                    acc -= v[(i + 1) * k + s];
                }
                out[i * k + s] = acc;
            }
        }
    }

    /// Diagonal preconditioner of [`tridiag_apply`].
    fn tridiag_precond(r: &[f64], z: &mut [f64], _k: usize) {
        for (zi, &ri) in z.iter_mut().zip(r) {
            *zi = ri / 3.0;
        }
    }

    /// Every system of a batched solve must reproduce its single-system
    /// solve bit for bit — fields, residual, and iteration count — for any
    /// batch size, mixed tolerances (early retirement), and any lane count.
    #[test]
    fn multi_rhs_matches_single_system_bit_for_bit() {
        let n = REDUCE_MIN + 37; // crosses the chunked-reduction gate
        let tols = [
            Tolerance::default(),
            Tolerance { rel: 1e-4, max_iters: 20_000 }, // retires early
            Tolerance { rel: 1e-12, max_iters: 3 },     // hits its cap
            Tolerance { rel: 1e-9, max_iters: 0 },      // retires before the loop
            Tolerance::default(),
        ];
        let k = tols.len();
        let rhs: Vec<Vec<f64>> = (0..k)
            .map(|s| {
                (0..n)
                    .map(|i| ((i.wrapping_mul(2654435761 + s * 97)) % 1000) as f64 * 1e-3 - 0.4)
                    .collect()
            })
            .collect();

        // Single-system reference at lanes=1.
        let mut single_x = Vec::new();
        let mut single_out = Vec::new();
        let mut scratch = CgScratch::default();
        for s in 0..k {
            let mut x = vec![0.0; n];
            let out = preconditioned_cg(
                tridiag_apply,
                tridiag_precond,
                &rhs[s],
                &mut x,
                n,
                &tols[s..=s],
                &mut scratch,
                1,
            );
            single_x.push(x);
            single_out.push(out.outcomes[0]);
        }

        let mut multi_scratch = CgScratch::default();
        for lanes in [1, 2, 8] {
            let refs: Vec<Option<&[f64]>> = rhs.iter().map(|v| Some(v.as_slice())).collect();
            let mut b = Vec::new();
            interleave(&refs, n, 0.0, &mut b);
            let mut xs = vec![0.0; n * k];
            let result = preconditioned_cg(
                tridiag_apply,
                tridiag_precond,
                &b,
                &mut xs,
                n,
                &tols,
                &mut multi_scratch,
                lanes,
            );
            assert_eq!(result.outcomes.len(), k);
            for s in 0..k {
                let (it_ref, res_ref) = single_out[s].stats(tols[s].max_iters);
                let (it_got, res_got) = result.outcomes[s].stats(tols[s].max_iters);
                assert_eq!(it_got, it_ref, "iterations differ for system {s} at lanes={lanes}");
                assert_eq!(
                    res_got.to_bits(),
                    res_ref.to_bits(),
                    "residual differs for system {s} at lanes={lanes}"
                );
                assert!(matches!(
                    (&result.outcomes[s], &single_out[s]),
                    (CgOutcome::Converged { .. }, CgOutcome::Converged { .. })
                        | (CgOutcome::MaxIterations { .. }, CgOutcome::MaxIterations { .. })
                ));
                for i in 0..n {
                    assert_eq!(
                        xs[i * k + s].to_bits(),
                        single_x[s][i].to_bits(),
                        "x[{i}] differs for system {s} at lanes={lanes}"
                    );
                }
            }
            // One fused sweep per lockstep iteration plus the initial
            // residual: bounded by the slowest unretired system.
            let max_iters_run =
                (0..k).map(|s| single_out[s].stats(tols[s].max_iters).0).max().unwrap();
            assert_eq!(result.fused_sweeps, 1 + max_iters_run as u64);
        }
    }

    /// The engine reports exactly the preconditioner applications it makes
    /// — one per lockstep iteration after the first residual check, shared
    /// by every active system — at width 1 and at width 3.
    #[test]
    fn precond_calls_are_counted_where_they_happen() {
        let n = 300;
        let tols = [
            Tolerance::default(),
            Tolerance { rel: 1e-4, max_iters: 20_000 },
            Tolerance { rel: 1e-12, max_iters: 5 },
        ];
        for width in [1usize, 3] {
            let rhs: Vec<Vec<f64>> = (0..width)
                .map(|s| (0..n).map(|i| ((i * 31 + s * 7) % 17) as f64 * 0.1 - 0.5).collect())
                .collect();
            let refs: Vec<Option<&[f64]>> = rhs.iter().map(|v| Some(v.as_slice())).collect();
            let mut b = Vec::new();
            interleave(&refs, n, 0.0, &mut b);
            let mut xs = vec![0.0; n * width];
            let mut calls = 0u64;
            let result = preconditioned_cg(
                tridiag_apply,
                |r: &[f64], z: &mut [f64], k: usize| {
                    calls += 1;
                    tridiag_precond(r, z, k);
                },
                &b,
                &mut xs,
                n,
                &tols[..width],
                &mut CgScratch::default(),
                1,
            );
            assert!(calls > 0);
            assert_eq!(result.precond_calls, calls, "width {width}");
            assert_eq!(result.fused_sweeps, calls + 1, "width {width}");
        }
    }

    /// An empty batch is a no-op.
    #[test]
    fn empty_batch_is_a_no_op() {
        let empty = preconditioned_cg(
            tridiag_apply,
            tridiag_precond,
            &[],
            &mut [],
            257,
            &[],
            &mut CgScratch::default(),
            1,
        );
        assert!(empty.outcomes.is_empty());
        assert_eq!(empty.fused_sweeps, 0);
        assert_eq!(empty.precond_calls, 0);
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        // Two different solves through one scratch give the same answers
        // as fresh solves.
        let mut scratch = CgScratch::default();
        let mut x1 = vec![0.0, 0.0];
        solve_2x2(&[1.0, 2.0], &mut x1, Tolerance::default(), &mut scratch);
        let mut x2 = vec![0.0, 0.0];
        solve_2x2(&[2.0, 1.0], &mut x2, Tolerance::default(), &mut scratch);
        assert!((x1[0] - 1.0 / 11.0).abs() < 1e-9 && (x1[1] - 7.0 / 11.0).abs() < 1e-9);
        // A x2 = [2,1] -> x2 = [5/11, 2/11].
        assert!((x2[0] - 5.0 / 11.0).abs() < 1e-9 && (x2[1] - 2.0 / 11.0).abs() < 1e-9);
    }
}
