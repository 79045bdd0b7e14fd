//! The embedding of a dense matrix onto the processor grid.

use vmp_hypercube::topology::NodeId;

use crate::dist::{AxisDist, Dist};
use crate::grid::ProcGrid;
use crate::shape::{Axis, MatShape};

/// A load-balanced embedding of an `n_r x n_c` matrix on a grid: rows are
/// distributed over grid rows, columns over grid columns, each by a
/// [`Dist`] rule. Every node stores its local elements as a dense
/// row-major `local_rows x local_cols` block (in slot order along both
/// axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixLayout {
    shape: MatShape,
    grid: ProcGrid,
    rows: AxisDist,
    cols: AxisDist,
}

impl MatrixLayout {
    /// Embed `shape` on `grid` with the given row/column partitioning
    /// rules.
    #[must_use]
    pub fn new(shape: MatShape, grid: ProcGrid, row_kind: Dist, col_kind: Dist) -> Self {
        let rows = AxisDist::new(shape.rows, grid.dr(), row_kind);
        let cols = AxisDist::new(shape.cols, grid.dc(), col_kind);
        MatrixLayout { shape, grid, rows, cols }
    }

    /// Both axes cyclic — the layout Gaussian elimination and simplex
    /// want (the active submatrix stays balanced as it shrinks).
    #[must_use]
    pub fn cyclic(shape: MatShape, grid: ProcGrid) -> Self {
        Self::new(shape, grid, Dist::Cyclic, Dist::Cyclic)
    }

    /// Both axes blocked.
    #[must_use]
    pub fn block(shape: MatShape, grid: ProcGrid) -> Self {
        Self::new(shape, grid, Dist::Block, Dist::Block)
    }

    /// Matrix shape.
    #[must_use]
    pub fn shape(&self) -> MatShape {
        self.shape
    }

    /// The processor grid.
    #[must_use]
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// Row distribution (over grid rows).
    #[must_use]
    pub fn rows(&self) -> &AxisDist {
        &self.rows
    }

    /// Column distribution (over grid columns).
    #[must_use]
    pub fn cols(&self) -> &AxisDist {
        &self.cols
    }

    /// The distribution along `axis`' vector direction: `Row` vectors are
    /// indexed by matrix column, so this returns the column distribution
    /// for `Axis::Row`.
    #[must_use]
    pub fn vector_dist(&self, axis: Axis) -> &AxisDist {
        match axis {
            Axis::Row => &self.cols,
            Axis::Col => &self.rows,
        }
    }

    /// The node owning element `(i, j)`.
    #[must_use]
    pub fn owner(&self, i: usize, j: usize) -> NodeId {
        self.grid.node_at(self.rows.owner(i), self.cols.owner(j))
    }

    /// Local block dimensions `(local_rows, local_cols)` at `node`.
    #[must_use]
    pub fn local_shape(&self, node: NodeId) -> (usize, usize) {
        let (gr, gc) = self.grid.grid_coords(node);
        (self.rows.count(gr), self.cols.count(gc))
    }

    /// Number of local elements at `node`.
    #[must_use]
    pub fn local_len(&self, node: NodeId) -> usize {
        let (lr, lc) = self.local_shape(node);
        lr * lc
    }

    /// The largest local element count over all nodes — the per-processor
    /// work bound `ceil(n_r/p_r) * ceil(n_c/p_c)`.
    #[must_use]
    pub fn max_local_len(&self) -> usize {
        self.rows.max_count() * self.cols.max_count()
    }

    /// Virtual-processing ratio `m / p` (may round to zero for tiny
    /// matrices).
    #[must_use]
    pub fn vp_ratio(&self) -> usize {
        self.shape.elements() / self.grid.p()
    }

    /// Local offset (row-major within the node's block) of element
    /// `(i, j)`; only meaningful on `self.owner(i, j)`.
    #[must_use]
    pub fn local_offset(&self, i: usize, j: usize) -> usize {
        let (_, gc) = (self.rows.owner(i), self.cols.owner(j));
        let lc = self.cols.count(gc);
        self.rows.local_index(i) * lc + self.cols.local_index(j)
    }

    /// Global `(i, j)` of the element at local `(li, lj)` on `node`.
    #[must_use]
    pub fn global_at(&self, node: NodeId, li: usize, lj: usize) -> (usize, usize) {
        let (gr, gc) = self.grid.grid_coords(node);
        (self.rows.global_index(gr, li), self.cols.global_index(gc, lj))
    }

    /// Iterate `(global_i, global_j, local_offset)` for every element
    /// stored at `node`, in local row-major order.
    pub fn local_elements(&self, node: NodeId) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (gr, gc) = self.grid.grid_coords(node);
        let lr = self.rows.count(gr);
        let lc = self.cols.count(gc);
        (0..lr).flat_map(move |li| {
            (0..lc).map(move |lj| {
                (self.rows.global_index(gr, li), self.cols.global_index(gc, lj), li * lc + lj)
            })
        })
    }

    /// The layout of the transposed matrix on the transposed grid: grid
    /// rows and columns swap roles, as do the axis distributions.
    #[must_use]
    pub fn transposed(&self) -> MatrixLayout {
        let grid_t =
            ProcGrid::with_encoding(self.grid.cube(), self.grid.dc(), self.grid.encoding());
        MatrixLayout {
            shape: self.shape.transpose(),
            grid: grid_t,
            rows: AxisDist::new(self.shape.cols, self.grid.dc(), self.cols.kind()),
            cols: AxisDist::new(self.shape.rows, self.grid.dr(), self.rows.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::topology::Cube;

    fn layout(rows: usize, cols: usize, dim: u32, dr: u32, kind: Dist) -> MatrixLayout {
        MatrixLayout::new(MatShape::new(rows, cols), ProcGrid::new(Cube::new(dim), dr), kind, kind)
    }

    #[test]
    fn every_element_has_exactly_one_home() {
        for kind in [Dist::Block, Dist::Cyclic] {
            for (r, c, dim, dr) in
                [(8usize, 8usize, 4u32, 2u32), (7, 13, 4, 1), (5, 3, 3, 2), (16, 4, 2, 2)]
            {
                let l = layout(r, c, dim, dr, kind);
                let mut hit = vec![vec![false; l.local_len(0).max(64)]; l.grid().p()];
                for (node, flags) in hit.iter_mut().enumerate() {
                    flags.truncate(l.local_len(node).max(1));
                }
                let mut total = 0usize;
                for i in 0..r {
                    for j in 0..c {
                        let node = l.owner(i, j);
                        let off = l.local_offset(i, j);
                        assert!(off < l.local_len(node), "offset in range");
                        total += 1;
                        // Roundtrip through global_at.
                        let (lr, lc) = l.local_shape(node);
                        let li = off / lc.max(1);
                        let lj = off % lc.max(1);
                        assert!(li < lr && lj < lc);
                        assert_eq!(l.global_at(node, li, lj), (i, j));
                    }
                }
                assert_eq!(total, l.shape().elements());
            }
        }
    }

    #[test]
    fn local_elements_enumerates_the_whole_matrix_once() {
        let l = layout(9, 6, 4, 2, Dist::Cyclic);
        let mut seen = vec![vec![false; 6]; 9];
        for node in 0..l.grid().p() {
            let mut count = 0;
            for (i, j, off) in l.local_elements(node) {
                assert!(!seen[i][j], "({i},{j}) duplicated");
                seen[i][j] = true;
                assert_eq!(l.owner(i, j), node);
                assert_eq!(l.local_offset(i, j), off);
                count += 1;
            }
            assert_eq!(count, l.local_len(node));
        }
        assert!(seen.iter().flatten().all(|&b| b));
    }

    #[test]
    fn load_balance_bound_holds() {
        for kind in [Dist::Block, Dist::Cyclic] {
            let l = layout(100, 37, 6, 3, kind);
            let bound = l.max_local_len();
            for node in 0..l.grid().p() {
                assert!(l.local_len(node) <= bound);
            }
            // The bound is ceil(100/8) * ceil(37/8) = 13 * 5.
            assert_eq!(bound, 13 * 5);
        }
    }

    #[test]
    fn vector_dist_matches_axis_orientation() {
        let l = layout(8, 16, 4, 2, Dist::Block);
        assert_eq!(l.vector_dist(Axis::Row).n(), 16, "row vectors indexed by column");
        assert_eq!(l.vector_dist(Axis::Col).n(), 8);
    }

    #[test]
    fn transposed_layout_swaps_roles() {
        let l = layout(8, 4, 4, 3, Dist::Cyclic);
        let t = l.transposed();
        assert_eq!(t.shape(), MatShape::new(4, 8));
        assert_eq!(t.grid().dr(), 1);
        assert_eq!(t.grid().dc(), 3);
        assert_eq!(t.rows().n(), 4);
        assert_eq!(t.cols().n(), 8);
    }

    #[test]
    fn vp_ratio_is_elements_over_p() {
        let l = layout(32, 32, 4, 2, Dist::Block);
        assert_eq!(l.vp_ratio(), 64);
    }

    #[test]
    fn single_node_grid_owns_everything() {
        let l = layout(5, 7, 0, 0, Dist::Block);
        assert_eq!(l.grid().p(), 1);
        assert_eq!(l.local_len(0), 35);
        assert_eq!(l.owner(4, 6), 0);
        assert_eq!(l.local_offset(2, 3), 2 * 7 + 3);
    }
}
