//! Per-thread solve workspaces.
//!
//! A production-grid solve works in megabytes of vectors: the CG vectors,
//! a right-hand side, iterate and residual per multigrid level, per-lane
//! Thomas buffers and boundary-row snapshots, and the interleaved
//! right-hand sides. All of it is dead between solves, so it belongs to
//! the thread that solves rather than to the model or surrogate being
//! solved: each thread keeps a take/put stack of [`Workspace`]s, and every
//! steady solve, transient step and surrogate query takes one for its
//! duration. The number of workspaces is then bounded by the threads that
//! solve, not by how many models and surrogates a caller keeps cached.
//!
//! A workspace grows to the largest system, batch width and lane count it
//! has served and never shrinks. Every kernel works on prefixes and writes
//! each element before reading it, so which model last used a workspace
//! never shows in the results.

use crate::multigrid::MgScratch;
use crate::solver::CgScratch;

use std::cell::RefCell;

/// The working vectors of one solve. Vectors are interleaved `[node][rhs]`
/// at the width of the solve using them.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// CG vectors.
    pub(crate) cg: CgScratch,
    /// V-cycle level vectors, Thomas buffers and snapshots.
    pub(crate) mg: MgScratch,
    /// Right-hand side: a model's fine one, or a surrogate's level-`l1`
    /// one.
    pub(crate) rhs: Vec<f64>,
    /// A surrogate's level-`l2` right-hand side.
    pub(crate) rhs2: Vec<f64>,
    /// A batched surrogate query's level-`l1` right-hand sides, one map
    /// after another, before interleaving.
    pub(crate) planes: Vec<f64>,
}

thread_local! {
    /// This thread's idle workspaces. One is enough unless solves nest.
    static IDLE: RefCell<Vec<Workspace>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on one of the calling thread's workspaces: takes an idle one
/// (or creates it) and puts it back afterwards. A nested call takes a
/// second one. If `f` panics the workspace is dropped, not put back.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut ws = IDLE.with_borrow_mut(Vec::pop).unwrap_or_default();
    let out = f(&mut ws);
    IDLE.with_borrow_mut(|idle| idle.push(ws));
    out
}

/// Idle workspaces the calling thread holds.
#[cfg(test)]
pub(crate) fn held() -> usize {
    IDLE.with_borrow(Vec::len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Preconditioner, Rect, StackBuilder};

    /// Twenty models of different grids, depths and preconditioners, each
    /// solved, stepped and queried through its surrogate on one thread,
    /// leave that thread exactly one workspace.
    #[test]
    fn one_thread_holds_one_workspace_across_models() {
        std::thread::spawn(|| {
            assert_eq!(held(), 0, "a fresh thread starts with no workspace");
            for i in 0..20usize {
                let cells = 8 + 4 * i;
                let precond =
                    if i % 2 == 0 { Preconditioner::Multigrid } else { Preconditioner::Jacobi };
                let mut builder = StackBuilder::new(4e-3, 4e-3, cells, cells - i % 3)
                    .preconditioner(precond)
                    .layer("die", 150e-6, 120.0);
                if i % 4 < 2 {
                    builder = builder.layer("bond", 20e-6, 1.2).layer("die2", 150e-6, 120.0);
                }
                let m = builder.layer("lid", 300e-6, 200.0).convection(0.4, 45.0).build();
                let mut p = m.zero_power();
                p.add_uniform_rect(0, Rect::new(0.5e-3, 0.5e-3, 2e-3, 2e-3), 1.0);
                let field = m.solve(&p);
                let _ = m.transient_step(&p, &field, 1e-3);
                let _ = m.surrogate().solve_pair(&p, &p);
                assert_eq!(held(), 1, "model {i}: one workspace serves every solve");
            }
        })
        .join()
        .expect("solves hold");
    }
}
