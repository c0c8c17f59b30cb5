//! Steady-state thermal simulator for 2.5D/3D multi-chip modules
//! (HotSpot-6.0 stand-in).
//!
//! HotSpot models a package as a resistive network over a uniform grid of
//! thermal cells stacked through the package layers, with a convection
//! boundary at the heat-sink surface. This crate implements the same
//! finite-volume discretization and solves the resulting sparse
//! symmetric-positive-definite system with preconditioned conjugate
//! gradients — geometric multigrid on production-size grids, Jacobi on
//! small ones (see [`Preconditioner`]).
//!
//! Matching the paper's setup: 125 µm grid cells (`detailed_3D`-style
//! heterogeneous layers via per-cell conductivity patches), 45 °C ambient,
//! and a lumped convection resistance of 0.4 K/W representing the limited
//! cooling of edge/mobile devices.
//!
//! Temperature–leakage co-iteration (and thermal-runaway detection) lives in
//! the `tesa` crate, which owns the leakage models; this crate exposes a
//! pure linear solve.
//!
//! Every CG solve emits a `thermal.cg` (or `thermal.transient_cg`) trace
//! event — unknown count, preconditioner, warm-start flag, iterations,
//! final residual — through `tesa_util::trace`, so `tesa trace summarize`
//! can report solver health (mean/max iterations) for a whole DSE run.
//!
//! # Examples
//!
//! ```
//! use tesa_thermal::{Rect, StackBuilder};
//!
//! // An 8x8 mm silicon die under a TIM and a copper lid.
//! let model = StackBuilder::new(8.0e-3, 8.0e-3, 32, 32)
//!     .layer("die", 150e-6, 120.0)
//!     .layer("tim", 50e-6, 1.5)
//!     .layer("lid", 500e-6, 385.0)
//!     .convection(0.4, 45.0)
//!     .build();
//! let mut power = model.zero_power();
//! power.add_uniform_rect(0, Rect::new(2.0e-3, 2.0e-3, 4.0e-3, 4.0e-3), 5.0);
//! let field = model.solve(&power);
//! assert!(field.peak_c() > 45.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod field;
mod geometry;
mod model;
mod multigrid;
mod power;
mod solver;
mod stack;
mod surrogate;
mod workspace;

pub use field::ThermalField;
pub use geometry::Rect;
pub use model::{BatchSolveRequest, Preconditioner, SolveError, SolveQuality, ThermalModel};
pub use power::PowerMap;
pub use stack::StackBuilder;
pub use surrogate::{Surrogate, SurrogateSolution};
