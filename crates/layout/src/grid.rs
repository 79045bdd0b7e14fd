//! Two-dimensional processor grids embedded in the cube.
//!
//! Matrices live on a `2^{d_r} x 2^{d_c}` grid of processors with
//! `d_r + d_c = d`. The grid-row index is encoded (via a binary-reflected
//! Gray code, so grid neighbours are cube neighbours) into one subset of
//! the cube's address bits and the grid-column index into the complement.
//! Row-wise collectives then run on the row-index dims, column-wise
//! collectives on the column-index dims, all subgrids in parallel — the
//! standard CM matrix configuration (cf. Johnsson, *Communication
//! Efficient Basic Linear Algebra Computations on Hypercube
//! Architectures*).

use serde::{Deserialize, Serialize};
use vmp_hypercube::gray::{gray, gray_inverse};
use vmp_hypercube::topology::{Cube, NodeId};

/// How grid coordinates map to cube address bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridEncoding {
    /// Plain binary: grid coordinate = packed address bits.
    Binary,
    /// Binary-reflected Gray code: grid neighbours are cube neighbours
    /// (dilation-1 embedding). The default, faithful to the paper.
    Gray,
}

/// A `2^{d_r} x 2^{d_c}` processor grid over a Boolean cube.
///
/// Invariant: the grid-column index occupies the low `d_c` address bits
/// (cube dims `0..d_c`, in order) and the grid-row index the `d_r` bits
/// above them. [`ProcGrid::grid_coords`] and [`ProcGrid::node_at`] rely
/// on it to split and join a node address with one shift and one mask.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcGrid {
    dim: u32,
    /// Cube dims encoding the grid-*column* index: `0..d_c`.
    col_dims: Vec<u32>,
    /// Cube dims encoding the grid-*row* index: `d_c..d`.
    row_dims: Vec<u32>,
    encoding: GridEncoding,
}

impl ProcGrid {
    /// A grid with `2^dr` rows and `2^{d-dr}` columns on a `d`-cube,
    /// Gray-encoded.
    ///
    /// # Panics
    /// Panics if `dr > cube.dim()`.
    #[must_use]
    pub fn new(cube: Cube, dr: u32) -> Self {
        Self::with_encoding(cube, dr, GridEncoding::Gray)
    }

    /// As [`ProcGrid::new`] with an explicit coordinate encoding.
    #[must_use]
    pub fn with_encoding(cube: Cube, dr: u32, encoding: GridEncoding) -> Self {
        let d = cube.dim();
        assert!(dr <= d, "row dimension {dr} exceeds cube dimension {d}");
        let dc = d - dr;
        ProcGrid { dim: d, col_dims: (0..dc).collect(), row_dims: (dc..d).collect(), encoding }
    }

    /// The squarest grid on `cube`: `ceil(d/2)` row dims.
    #[must_use]
    pub fn square(cube: Cube) -> Self {
        Self::new(cube, cube.dim().div_ceil(2))
    }

    /// The underlying cube.
    #[must_use]
    pub fn cube(&self) -> Cube {
        Cube::new(self.dim)
    }

    /// Number of grid rows `2^{d_r}`.
    #[must_use]
    pub fn pr(&self) -> usize {
        1usize << self.row_dims.len()
    }

    /// Number of grid columns `2^{d_c}`.
    #[must_use]
    pub fn pc(&self) -> usize {
        1usize << self.col_dims.len()
    }

    /// `d_r`.
    #[must_use]
    pub fn dr(&self) -> u32 {
        self.row_dims.len() as u32
    }

    /// `d_c`.
    #[must_use]
    pub fn dc(&self) -> u32 {
        self.col_dims.len() as u32
    }

    /// Total processors `p`.
    #[must_use]
    pub fn p(&self) -> usize {
        1usize << self.dim
    }

    /// Cube dims encoding the grid-row index. Collectives **along a grid
    /// column** (combining different grid rows) run over these dims.
    #[must_use]
    pub fn row_dims(&self) -> &[u32] {
        &self.row_dims
    }

    /// Cube dims encoding the grid-column index. Collectives **along a
    /// grid row** (combining different grid columns) run over these dims.
    #[must_use]
    pub fn col_dims(&self) -> &[u32] {
        &self.col_dims
    }

    /// The coordinate encoding in force.
    #[must_use]
    pub fn encoding(&self) -> GridEncoding {
        self.encoding
    }

    fn encode(&self, x: usize) -> usize {
        match self.encoding {
            GridEncoding::Binary => x,
            GridEncoding::Gray => gray(x),
        }
    }

    fn decode(&self, x: usize) -> usize {
        match self.encoding {
            GridEncoding::Binary => x,
            GridEncoding::Gray => gray_inverse(x),
        }
    }

    /// The node at grid position `(gr, gc)`: the encoded column index in
    /// the low `d_c` address bits, the encoded row index above them.
    #[must_use]
    pub fn node_at(&self, gr: usize, gc: usize) -> NodeId {
        debug_assert!(gr < self.pr(), "grid row {gr} out of range");
        debug_assert!(gc < self.pc(), "grid col {gc} out of range");
        (self.encode(gr) << self.col_dims.len()) | self.encode(gc)
    }

    /// The grid position `(gr, gc)` of `node`: the column index is the
    /// low `d_c` address bits, the row index the bits above them.
    #[must_use]
    pub fn grid_coords(&self, node: NodeId) -> (usize, usize) {
        debug_assert!(node < self.p(), "node {node} out of range");
        let dc = self.col_dims.len();
        (self.decode(node >> dc), self.decode(node & ((1usize << dc) - 1)))
    }

    /// The *subcube coordinate* (packed address bits at `row_dims`) of
    /// grid row `gr` — what collectives take as a root coordinate.
    #[must_use]
    pub fn row_coord(&self, gr: usize) -> usize {
        debug_assert!(gr < self.pr());
        self.encode(gr)
    }

    /// The subcube coordinate of grid column `gc`.
    #[must_use]
    pub fn col_coord(&self, gc: usize) -> usize {
        debug_assert!(gc < self.pc());
        self.encode(gc)
    }

    /// Iterate the nodes of grid row `gr` in grid-column order.
    pub fn row_nodes(&self, gr: usize) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.pc()).map(move |gc| self.node_at(gr, gc))
    }

    /// Iterate the nodes of grid column `gc` in grid-row order.
    pub fn col_nodes(&self, gc: usize) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.pr()).map(move |gr| self.node_at(gr, gc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coords_roundtrip() {
        for dim in 0..=10u32 {
            for dr in 0..=dim {
                for enc in [GridEncoding::Binary, GridEncoding::Gray] {
                    let g = ProcGrid::with_encoding(Cube::new(dim), dr, enc);
                    assert_eq!(g.pr() * g.pc(), g.p());
                    let mut seen = vec![false; g.p()];
                    for gr in 0..g.pr() {
                        for gc in 0..g.pc() {
                            let node = g.node_at(gr, gc);
                            assert!(!seen[node], "node {node} double-assigned");
                            seen[node] = true;
                            assert_eq!(g.grid_coords(node), (gr, gc));
                        }
                    }
                    assert!(seen.into_iter().all(|b| b), "grid covers the cube");
                }
            }
        }
    }

    #[test]
    fn gray_grid_has_dilation_one() {
        let g = ProcGrid::new(Cube::new(6), 3);
        let cube = g.cube();
        for gr in 0..g.pr() {
            for gc in 0..g.pc() {
                let here = g.node_at(gr, gc);
                if gr + 1 < g.pr() {
                    assert_eq!(cube.distance(here, g.node_at(gr + 1, gc)), 1);
                }
                if gc + 1 < g.pc() {
                    assert_eq!(cube.distance(here, g.node_at(gr, gc + 1)), 1);
                }
            }
        }
    }

    #[test]
    fn binary_grid_neighbors_can_be_far() {
        let g = ProcGrid::with_encoding(Cube::new(4), 2, GridEncoding::Binary);
        let cube = g.cube();
        // Grid rows 1 -> 2 differ in two bits under binary encoding.
        assert_eq!(cube.distance(g.node_at(1, 0), g.node_at(2, 0)), 2);
    }

    #[test]
    fn row_and_col_dims_partition_the_cube() {
        let g = ProcGrid::new(Cube::new(5), 2);
        let mut all: Vec<u32> = g.row_dims().iter().chain(g.col_dims()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert_eq!(g.dr(), 2);
        assert_eq!(g.dc(), 3);
    }

    #[test]
    fn row_nodes_share_row_coordinate() {
        let g = ProcGrid::new(Cube::new(4), 2);
        let cube = g.cube();
        for gr in 0..g.pr() {
            let coord = g.row_coord(gr);
            for node in g.row_nodes(gr) {
                assert_eq!(cube.extract_coords(node, g.row_dims()), coord);
            }
        }
    }

    #[test]
    fn degenerate_grids() {
        // All rows (column count 1) and all cols (row count 1).
        let rows_only = ProcGrid::new(Cube::new(3), 3);
        assert_eq!(rows_only.pr(), 8);
        assert_eq!(rows_only.pc(), 1);
        let cols_only = ProcGrid::new(Cube::new(3), 0);
        assert_eq!(cols_only.pr(), 1);
        assert_eq!(cols_only.pc(), 8);
        let single = ProcGrid::new(Cube::new(0), 0);
        assert_eq!(single.p(), 1);
        assert_eq!(single.node_at(0, 0), 0);
    }

    #[test]
    fn square_splits_dims_evenly() {
        assert_eq!(ProcGrid::square(Cube::new(6)).dr(), 3);
        assert_eq!(ProcGrid::square(Cube::new(5)).dr(), 3);
        assert_eq!(ProcGrid::square(Cube::new(0)).dr(), 0);
    }
}
