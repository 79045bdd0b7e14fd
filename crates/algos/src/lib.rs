//! # vmp-algos — the paper's three applications, on the primitives
//!
//! *"We illustrate their use in three numerical algorithms: a
//! vector-matrix multiply, a Gaussian-elimination routine and a simplex
//! algorithm."*
//!
//! * [`mod@matvec`] — `y = x A` / `y = A x` as one elementwise pass plus one
//!   `reduce`;
//! * [`gauss`] — Gaussian elimination with partial pivoting on an
//!   augmented matrix, plus distributed back substitution;
//! * [`simplex`] — dense-tableau primal simplex, bit-identical to the
//!   serial oracle;
//! * [`serial`] — host-side dense linear algebra: the oracles the
//!   parallel algorithms are validated against and the serial baselines
//!   of the processor-time-product claim;
//! * [`workloads`] — seeded generators (diagonally dominant systems,
//!   pivot-stress matrices, bounded random LPs, Klee–Minty cubes).
//!
//! Extensions beyond the paper's three applications, showing the
//! primitives compose further:
//!
//! * [`mod@matmul`] — distributed matrix-matrix multiply (rank-1/SUMMA and
//!   panel-blocked schedules);
//! * [`cg`] — conjugate gradient on the primitives' matvec;
//! * [`stencil`] — Jacobi/Poisson relaxation via NEWS shifts on the
//!   Gray-coded embedding;
//! * [`fft`] — the hypercube FFT (node stages are neighbour exchanges);
//! * [`sort`] — Batcher bitonic sort on the same stage structure;
//! * [`histogram`] — dense vs sparse all-to-all histogram reduction
//!   (TR-682's comparison);
//! * [`listrank`] — pointer-jumping list ranking on indexed gathers.

#![warn(missing_docs)]

pub mod cg;
pub mod fft;
pub mod gauss;
pub mod histogram;
pub mod listrank;
pub mod matmul;
pub mod matvec;
pub mod serial;
pub mod simplex;
pub mod sort;
pub mod stencil;
pub mod workloads;

pub use cg::{cg_solve, CgOptions, CgOutcome};
pub use gauss::{
    back_substitute, build_augmented, forward_eliminate, forward_eliminate_range, ge_solve,
    ge_solve_dist, GeError, GeStats,
};
pub use matmul::{matmul, matmul_panelled};
pub use matvec::{matvec, vecmat, vecmat_via_distribute};
pub use simplex::{build_tableau, solve_general_parallel, solve_parallel};
