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

use vmp_hypercube::gray::{gray, gray_inverse};
use vmp_hypercube::topology::{Cube, NodeId};

use crate::shape::Axis;

/// Cube dims `0..64`: a grid's row and column dims are sub-slices of it,
/// so a grid is a `Copy` value with no storage of its own.
static DIMS: [u32; 64] = {
    let mut dims = [0u32; 64];
    let mut d = 0;
    while d < 64 {
        dims[d] = d as u32;
        d += 1;
    }
    dims
};

/// How grid coordinates map to cube address bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
///
/// The axis-generic accessors ([`ProcGrid::lines`],
/// [`ProcGrid::line_coord`], [`ProcGrid::node_on`],
/// [`ProcGrid::line_and_part`]) name a node by the *grid line* an
/// `axis`-aligned vector's copy sits on and the *part* of the vector it
/// holds: for `Axis::Row` the lines are grid rows and the parts grid
/// columns, for `Axis::Col` the other way round. Code written against
/// them serves both axes with one body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcGrid {
    dim: u32,
    /// `d_c`: the grid-column index is cube dims `0..d_c`, the grid-row
    /// index dims `d_c..d`.
    dc: u32,
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
        ProcGrid { dim: d, dc: d - dr, encoding }
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
        1usize << self.dr()
    }

    /// Number of grid columns `2^{d_c}`.
    #[must_use]
    pub fn pc(&self) -> usize {
        1usize << self.dc
    }

    /// `d_r`.
    #[must_use]
    pub fn dr(&self) -> u32 {
        self.dim - self.dc
    }

    /// `d_c`.
    #[must_use]
    pub fn dc(&self) -> u32 {
        self.dc
    }

    /// Total processors `p`.
    #[must_use]
    pub fn p(&self) -> usize {
        1usize << self.dim
    }

    /// Every cube dim, `0..d`: collectives over the whole machine run
    /// over these.
    #[must_use]
    pub fn dims(&self) -> &'static [u32] {
        &DIMS[..self.dim as usize]
    }

    /// Cube dims encoding the grid-row index. Collectives **along a grid
    /// column** (combining different grid rows) run over these dims.
    #[must_use]
    pub fn row_dims(&self) -> &'static [u32] {
        &DIMS[self.dc as usize..self.dim as usize]
    }

    /// Cube dims encoding the grid-column index. Collectives **along a
    /// grid row** (combining different grid columns) run over these dims.
    #[must_use]
    pub fn col_dims(&self) -> &'static [u32] {
        &DIMS[..self.dc as usize]
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
        (self.encode(gr) << self.dc) | self.encode(gc)
    }

    /// The grid position `(gr, gc)` of `node`: the column index is the
    /// low `d_c` address bits, the row index the bits above them.
    #[must_use]
    pub fn grid_coords(&self, node: NodeId) -> (usize, usize) {
        debug_assert!(node < self.p(), "node {node} out of range");
        (self.decode(node >> self.dc), self.decode(node & (self.pc() - 1)))
    }

    /// The grid lines an `axis`-aligned vector's copies sit on: their
    /// number and the cube dims encoding a line's index (grid rows and
    /// [`ProcGrid::row_dims`] for `Axis::Row`, grid columns and
    /// [`ProcGrid::col_dims`] for `Axis::Col`). Collectives *across* the
    /// lines — broadcasting or combining one part's copies — run over
    /// these dims; the vector's parts are `lines(axis.transpose())`.
    #[must_use]
    pub fn lines(&self, axis: Axis) -> (usize, &'static [u32]) {
        match axis {
            Axis::Row => (self.pr(), self.row_dims()),
            Axis::Col => (self.pc(), self.col_dims()),
        }
    }

    /// The *subcube coordinate* of grid line `line` across `axis` (the
    /// packed address bits at `lines(axis).1` of its nodes) — what
    /// collectives take as a root coordinate.
    #[must_use]
    pub fn line_coord(&self, axis: Axis, line: usize) -> usize {
        debug_assert!(line < self.lines(axis).0, "grid line {line} out of range");
        self.encode(line)
    }

    /// The node on grid line `line` holding part `part` of an
    /// `axis`-aligned vector: `node_at(line, part)` for `Axis::Row`,
    /// `node_at(part, line)` for `Axis::Col`.
    #[must_use]
    pub fn node_on(&self, axis: Axis, line: usize, part: usize) -> NodeId {
        match axis {
            Axis::Row => self.node_at(line, part),
            Axis::Col => self.node_at(part, line),
        }
    }

    /// The inverse of [`ProcGrid::node_on`]: `(line, part)` of `node`.
    #[must_use]
    pub fn line_and_part(&self, axis: Axis, node: NodeId) -> (usize, usize) {
        let (gr, gc) = self.grid_coords(node);
        match axis {
            Axis::Row => (gr, gc),
            Axis::Col => (gc, gr),
        }
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
    fn line_accessors_are_inverse_and_agree_on_coordinates() {
        for dim in 0..=8u32 {
            for dr in 0..=dim {
                for enc in [GridEncoding::Binary, GridEncoding::Gray] {
                    let g = ProcGrid::with_encoding(Cube::new(dim), dr, enc);
                    let cube = g.cube();
                    assert_eq!(g.lines(Axis::Row).0 * g.lines(Axis::Col).0, g.p());
                    for axis in [Axis::Row, Axis::Col] {
                        let (lines, dims) = g.lines(axis);
                        let parts = g.lines(axis.transpose()).0;
                        let mut seen = vec![false; g.p()];
                        for line in 0..lines {
                            for part in 0..parts {
                                let node = g.node_on(axis, line, part);
                                assert!(!seen[node], "{axis:?}: node {node} named twice");
                                seen[node] = true;
                                assert_eq!(g.line_and_part(axis, node), (line, part));
                                assert_eq!(
                                    g.line_coord(axis, line),
                                    cube.extract_coords(node, dims)
                                );
                            }
                        }
                        assert!(seen.into_iter().all(|b| b), "{axis:?}: node_on is onto");
                    }
                }
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
