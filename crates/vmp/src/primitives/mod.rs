//! The four vector-matrix primitives.
//!
//! The paper's contribution: four APL-like operations connecting dense
//! matrices and vectors, specified independently of machine size and
//! implemented over load-balanced embeddings on the hypercube:
//!
//! | primitive | here | communication structure |
//! |---|---|---|
//! | `reduce` | [`reduce`] / [`reduce_to`] / [`reduce_zip`] | local fold + `d_r`-step (all)reduce over the grid-row dims |
//! | `distribute` | [`distribute`] | (optional `d_r`-step broadcast) + local replication |
//! | `extract` | [`extract`] / [`extract_replicated`] | local copy on the owning grid line (+ optional broadcast) |
//! | `insert` | [`insert`] | local write, or a blocked route between two grid lines |
//!
//! All four are `O(m/p)` local work plus `O(lg p)` blocked messages of
//! `O(ceil(n/p_c))` elements — which is why, for `m > p lg p`, the
//! processor-time product is within a constant of the serial cost (the
//! abstract's optimality claim; see `analysis` for the formulas and bench
//! F1/F2 for the measurements).
//!
//! Conventions: `Axis::Row` primitives relate a matrix to *row vectors*
//! (length = `cols`); `Axis::Col` to column vectors. Results come back in
//! the embedding the operation naturally produces (see each function);
//! embedding changes are explicit via [`crate::remap`] — the paper:
//! *"The primitives may indicate a change from one embedding to another."*

mod distribute;
mod extract;
mod insert;
mod panel;
mod reduce;

pub use distribute::distribute;
pub(crate) use distribute::stack;
pub use extract::{extract, extract_replicated};
pub use insert::insert;
pub use panel::{
    extract_col_panel_replicated, extract_row_panel_replicated, panel_gemm, ColPanel, RowPanel,
};
pub(crate) use reduce::local_fold;
pub use reduce::{reduce, reduce_to, reduce_zip};
