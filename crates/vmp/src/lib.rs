//! # vmp-core — the four vector-matrix primitives
//!
//! Reproduction of the core contribution of *Four Vector-Matrix
//! Primitives* (Agrawal, Blelloch, Krawitz & Phillips, SPAA 1989): four
//! APL-like operations — [`primitives::reduce`],
//! [`primitives::distribute`], [`primitives::extract`],
//! [`primitives::insert`] — connecting dense distributed matrices
//! ([`DistMatrix`]) and vectors ([`DistVector`]), specified independently
//! of machine size and implemented over load-balanced embeddings on a
//! (simulated) hypercube multiprocessor.
//!
//! Alongside the primitives:
//!
//! * [`elementwise`] — the communication-free local combinators (`map`,
//!   `zip`, `zip_axis`, `rank1_update`; [`primitives::reduce_zip`] folds
//!   one in place) that, with the four primitives, form the whole model;
//! * [`remap`] — explicit embedding changes (replicate / concentrate /
//!   general vector remap / matrix transpose & redistribution);
//! * [`naive`] — element-per-router-message implementations of the same
//!   primitives, the baseline the paper beat by "almost an order of
//!   magnitude";
//! * [`analysis`] — the cost formulas and `m > p lg p` optimality
//!   predicates behind the paper's complexity claims;
//! * [`scan`] — vector scans, segmented scans, `enumerate`/`pack`
//!   (Blelloch's scan model on the same embeddings);
//! * [`shift`] — NEWS-style torus/Dirichlet matrix shifts on the
//!   Gray-coded grid;
//! * [`indexing`] — irregular indexed gather (`out[i] = v[idx[i]]`).
//!
//! Node failures need nothing from this crate: the machine degrades
//! itself ([`Hypercube::degrade`](vmp_hypercube::machine::Hypercube::degrade))
//! by remapping logical nodes onto healthy hosts, and the primitives keep
//! running bit-identically on the same logical cube at reduced capacity.
//!
//! ```
//! use vmp_core::prelude::*;
//!
//! // An 8x8 machine-independent program: y = colsum(A).
//! let hc = &mut Hypercube::cm2(4); // 16 processors
//! let layout = MatrixLayout::cyclic(MatShape::new(8, 8), ProcGrid::square(hc.cube()));
//! let a = DistMatrix::from_fn(layout, |i, j| (i * 8 + j) as f64);
//! let y = reduce(hc, &a, Axis::Row, Sum);
//! assert_eq!(y.get(0), (0..8).map(|i| (i * 8) as f64).sum());
//! println!("simulated time: {:.1} us", hc.elapsed_us());
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod elem;
pub mod elementwise;
pub mod indexing;
pub mod matrix;
pub mod naive;
pub mod primitives;
pub mod remap;
pub mod scan;
pub mod shift;
pub mod vector;

pub use elem::{ArgMaxAbs, ArgMin, Loc, Max, Min, Numeric, ReduceOp, Scalar, Sum};
pub use matrix::DistMatrix;
pub use vector::DistVector;

/// One-stop imports for applications built on the primitives.
pub mod prelude {
    pub use crate::elem::{ArgMaxAbs, ArgMin, Loc, Max, Min, Numeric, ReduceOp, Sum};
    pub use crate::matrix::DistMatrix;
    pub use crate::primitives::{
        distribute, extract, extract_replicated, insert, reduce, reduce_to,
    };
    pub use crate::remap::{concentrate, redistribute, remap_vector, replicate, transpose};
    pub use crate::vector::DistVector;
    pub use vmp_hypercube::cost::CostModel;
    pub use vmp_hypercube::machine::Hypercube;
    pub use vmp_layout::{
        Axis, AxisDist, Dist, MatShape, MatrixLayout, Placement, ProcGrid, VecEmbedding,
        VectorLayout,
    };
}
