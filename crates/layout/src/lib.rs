//! # vmp-layout — load-balanced embeddings of matrices and vectors
//!
//! The paper's primitives are specified independently of machine size;
//! what makes them efficient is the *embedding*: how an `n_r x n_c`
//! matrix and its row/column vectors map onto the `2^{d_r} x 2^{d_c}`
//! processor grid that a Boolean cube is configured as. This crate is
//! pure address arithmetic over those embeddings:
//!
//! * [`shape`] — axes ([`Axis`]) and matrix shapes;
//! * [`dist`] — block and cyclic load-balanced index distributions;
//! * [`grid`] — Gray-coded 2-D processor grids over the cube;
//! * [`matrix`] — the matrix embedding ([`MatrixLayout`]);
//! * [`vector`] — vector embeddings ([`VectorLayout`]): axis-aligned
//!   (replicated or concentrated) and linear, the states between which
//!   the paper's primitives move vectors.
//!
//! Where the nodes physically are is not a layout matter: after node
//! failures the machine's own host map moves logical nodes onto healthy
//! neighbours (`Hypercube::degrade`), and every embedding here stays as
//! it is.

#![warn(missing_docs)]

pub mod dist;
pub mod grid;
pub mod matrix;
pub mod shape;
pub mod vector;

pub use dist::{AxisDist, Dist};
pub use grid::{GridEncoding, ProcGrid};
pub use matrix::MatrixLayout;
pub use shape::{Axis, MatShape};
pub use vector::{Placement, VecEmbedding, VectorLayout};
