//! The distributed dense matrix.

use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{MatShape, MatrixLayout};

use crate::elem::Scalar;

/// A dense matrix distributed over the simulated machine according to a
/// [`MatrixLayout`]. Each node stores its block row-major in local slot
/// order; the container really holds all the data (the simulation is
/// functional), and host-side accessors (`get`, `to_dense`) exist for
/// tests and I/O — they charge nothing and model nothing.
///
/// Storage is a single arena-backed [`NodeSlab`] — one contiguous
/// allocation for all nodes' blocks — so local kernels stream over
/// contiguous memory and constructing a matrix costs one allocation, not
/// `p`. See DESIGN.md § Data plane.
#[derive(Debug, Clone, PartialEq)]
pub struct DistMatrix<T> {
    layout: MatrixLayout,
    locals: NodeSlab<T>,
}

impl<T: Scalar> DistMatrix<T> {
    /// Materialise a matrix from `f(i, j)` (host-side initialisation; no
    /// machine charge — loading data onto the machine is outside the
    /// paper's measurements).
    #[must_use]
    pub fn from_fn(layout: MatrixLayout, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let (grid, rows, cols) = (layout.grid(), layout.rows(), layout.cols());
        let locals = NodeSlab::build(grid.p(), layout.shape().elements(), |node, buf| {
            let (gr, gc) = grid.grid_coords(node);
            for i in rows.part_indices(gr) {
                buf.extend(cols.part_indices(gc).map(|j| f(i, j)));
            }
        });
        DistMatrix { layout, locals }
    }

    /// A matrix with every element `value`.
    #[must_use]
    pub fn constant(layout: MatrixLayout, value: T) -> Self {
        Self::from_fn(layout, |_, _| value)
    }

    /// The embedding.
    #[must_use]
    pub fn layout(&self) -> &MatrixLayout {
        &self.layout
    }

    /// Matrix shape.
    #[must_use]
    pub fn shape(&self) -> MatShape {
        self.layout.shape()
    }

    /// Host-side read of element `(i, j)` (tests / output only).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> T {
        let node = self.layout.owner(i, j);
        self.locals[node][self.layout.local_offset(i, j)]
    }

    /// Host-side copy to a dense row-major matrix (tests / output only).
    #[must_use]
    pub fn to_dense(&self) -> Vec<Vec<T>> {
        let shape = self.shape();
        let mut dense: Vec<Vec<Option<T>>> = vec![vec![None; shape.cols]; shape.rows];
        for (node, buf) in self.locals.iter_segs().enumerate() {
            for (i, j, off) in self.layout.local_elements(node) {
                dense[i][j] = Some(buf[off]);
            }
        }
        dense
            .into_iter()
            .map(|row| row.into_iter().map(|v| v.expect("layout covers all elements")).collect())
            .collect()
    }

    /// Per-node local blocks (crate-internal: the primitives operate on
    /// these; applications go through the primitives). Node `n`'s block
    /// is the slice `locals()[n]`.
    pub(crate) fn locals(&self) -> &NodeSlab<T> {
        &self.locals
    }

    /// Mutable per-node local blocks (crate-internal).
    pub(crate) fn locals_mut(&mut self) -> &mut NodeSlab<T> {
        &mut self.locals
    }

    /// Assemble directly from an arena (crate-internal; the hot path —
    /// no per-node allocations).
    pub(crate) fn from_slab(layout: MatrixLayout, locals: NodeSlab<T>) -> Self {
        debug_assert_eq!(locals.p(), layout.grid().p());
        for node in 0..locals.p() {
            debug_assert_eq!(
                locals.len_of(node),
                layout.local_len(node),
                "node {node} buffer length"
            );
        }
        DistMatrix { layout, locals }
    }

    /// Validate the invariant that every node holds exactly its layout's
    /// local elements. Cheap; used liberally by tests.
    pub fn assert_consistent(&self) {
        assert_eq!(self.locals.p(), self.layout.grid().p());
        for node in 0..self.locals.p() {
            assert_eq!(
                self.locals.len_of(node),
                self.layout.local_len(node),
                "node {node} buffer length"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Dist, ProcGrid};

    fn layout(rows: usize, cols: usize, dim: u32, dr: u32, kind: Dist) -> MatrixLayout {
        MatrixLayout::new(MatShape::new(rows, cols), ProcGrid::new(Cube::new(dim), dr), kind, kind)
    }

    #[test]
    fn from_fn_get_roundtrip() {
        for kind in [Dist::Block, Dist::Cyclic] {
            let m = DistMatrix::from_fn(layout(7, 9, 4, 2, kind), |i, j| (i * 100 + j) as i64);
            m.assert_consistent();
            for i in 0..7 {
                for j in 0..9 {
                    assert_eq!(m.get(i, j), (i * 100 + j) as i64);
                }
            }
        }
    }

    #[test]
    fn constant_fills_everything() {
        let m = DistMatrix::constant(layout(4, 4, 2, 1, Dist::Block), 7i32);
        assert!(m.to_dense().into_iter().flatten().all(|v| v == 7));
    }

    #[test]
    fn single_node_layout_works() {
        let m = DistMatrix::from_fn(layout(3, 3, 0, 0, Dist::Block), |i, j| (i + j) as i32);
        assert_eq!(m.get(2, 1), 3);
        m.assert_consistent();
    }

    #[test]
    fn storage_is_one_contiguous_arena() {
        let m = DistMatrix::from_fn(layout(8, 8, 3, 2, Dist::Cyclic), |i, j| (i * 8 + j) as i64);
        assert_eq!(m.locals().total_len(), 64, "all elements in one allocation");
        assert_eq!(m.locals().offsets().len(), m.layout().grid().p() + 1);
    }
}
