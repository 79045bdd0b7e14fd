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
//!
//! Each primitive has one body for both axes: the grid geometry (which
//! grid line holds a row or column, which cube dims run across the
//! lines) comes from the layout's axis-generic accessors
//! ([`vmp_layout::ProcGrid::lines`], [`vmp_layout::ProcGrid::node_on`],
//! …), and a node's local line is a strided view of its row-major
//! block.

use std::iter::{Skip, StepBy, Take};

use vmp_layout::{Axis, MatrixLayout};

mod distribute;
mod extract;
mod insert;
mod panel;
mod reduce;

pub use distribute::distribute;
pub(crate) use distribute::stack;
pub use extract::{extract, extract_replicated};
pub(crate) use insert::check_insert;
pub use insert::insert;
pub use panel::{extract_panel_replicated, panel_gemm, Panel};
pub(crate) use reduce::local_fold;
pub use reduce::{reduce, reduce_to, reduce_zip};

/// The grid line holding row (`Axis::Row`) or column (`Axis::Col`)
/// `index`, and its local slot there.
pub(crate) fn line_and_slot(layout: &MatrixLayout, axis: Axis, index: usize) -> (usize, usize) {
    let across = layout.vector_dist(axis.transpose());
    (across.owner(index), across.local_index(index))
}

/// Local line `slot` of a row-major `lr x lc` block, read through
/// `block` (`iter()` or `iter_mut()` of the block): a row is `lc`
/// consecutive slots from `slot * lc`, a column every `lc`-th slot from
/// `slot`. Stepping with `skip` keeps an empty block in bounds.
pub(crate) fn local_line<I: Iterator>(
    block: I,
    axis: Axis,
    slot: usize,
    (lr, lc): (usize, usize),
) -> Take<StepBy<Skip<I>>> {
    let (start, step, len) = match axis {
        Axis::Row => (slot * lc, 1, lc),
        Axis::Col => (slot, lc.max(1), lr),
    };
    block.skip(start).step_by(step).take(len)
}
