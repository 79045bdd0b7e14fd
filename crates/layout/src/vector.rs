//! Vector embeddings — and the changes between them.
//!
//! The abstract: *"The primitives may indicate a change from one embedding
//! to another."* A vector in this system is embedded one of three ways:
//!
//! * **aligned + replicated** — a row vector (length `n_c`) is chunked
//!   over the grid *columns* exactly like the matrix columns, and every
//!   grid row holds a copy of its column's chunk. This is the embedding
//!   `reduce` naturally produces (via all-reduce) and the one `distribute`
//!   consumes for free (purely local replication).
//! * **aligned + concentrated** — same chunking but only the nodes of one
//!   grid row (resp. column) hold data. This is what `extract` naturally
//!   produces: row `i` of the matrix lives on grid row `owner(i)`.
//! * **linear** — chunked over all `p` nodes in node order; the balanced
//!   embedding for standalone vectors entering/leaving the matrix world.
//!
//! Column vectors are symmetric (chunks over grid rows). Embedding
//! changes are data movements costed by the machine; `vmp-core`
//! implements them (`remap`), this module describes who-holds-what.

use vmp_hypercube::topology::NodeId;

use crate::dist::{AxisDist, Dist};
use crate::grid::ProcGrid;
use crate::shape::Axis;

/// Where an axis-aligned vector's chunks physically sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every grid line orthogonal to the alignment holds a copy.
    Replicated,
    /// Only one grid line (given by its grid index) holds the data.
    Concentrated(usize),
}

impl Placement {
    /// The grid line holding the primary copy: line 0 of a replicated
    /// vector, the holding line of a concentrated one.
    fn primary_line(self) -> usize {
        match self {
            Placement::Replicated => 0,
            Placement::Concentrated(line) => line,
        }
    }
}

/// The embedding of a length-`n` vector on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecEmbedding {
    /// Aligned with a matrix axis: a `Row` vector is chunked over grid
    /// columns (like matrix columns), a `Col` vector over grid rows.
    Aligned {
        /// Orientation of the vector.
        axis: Axis,
        /// Physical placement of the chunks.
        placement: Placement,
    },
    /// Balanced over all `p` nodes, in node-id order.
    Linear,
}

/// A vector layout: length, embedding, grid, and the chunking rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorLayout {
    n: usize,
    grid: ProcGrid,
    embedding: VecEmbedding,
    dist: AxisDist,
    /// `(mask, bits)` of [`VectorLayout::primary_line`], fixed at
    /// construction: folds test every node against it.
    primary_line: (usize, usize),
}

impl VectorLayout {
    /// An axis-aligned layout with the given chunking rule (`kind` must
    /// match the matrix distribution along the same direction for aligned
    /// arithmetic to be local).
    #[must_use]
    pub fn aligned(n: usize, grid: ProcGrid, axis: Axis, placement: Placement, kind: Dist) -> Self {
        let (lines, dims) = grid.lines(axis);
        let line = placement.primary_line();
        assert!(line < lines, "concentration line {line} out of range");
        // Chunked over the parts: one per grid line across the other axis.
        let dist = AxisDist::new(n, grid.lines(axis.transpose()).1.len() as u32, kind);
        let mask = grid.cube().dims_mask(dims);
        let node = grid.node_on(axis, line, 0);
        let embedding = VecEmbedding::Aligned { axis, placement };
        VectorLayout { n, grid, embedding, dist, primary_line: (mask, node & mask) }
    }

    /// A linear (balanced, node-order) layout.
    #[must_use]
    pub fn linear(n: usize, grid: ProcGrid, kind: Dist) -> Self {
        let dist = AxisDist::new(n, grid.cube().dim(), kind);
        VectorLayout { n, grid, embedding: VecEmbedding::Linear, dist, primary_line: (0, 0) }
    }

    /// Vector length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The grid.
    #[must_use]
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// The embedding descriptor.
    #[must_use]
    pub fn embedding(&self) -> &VecEmbedding {
        &self.embedding
    }

    /// The chunking of global indices over parts.
    #[must_use]
    pub fn dist(&self) -> &AxisDist {
        &self.dist
    }

    /// The cube dims indexing the parts: the part dims of an aligned
    /// vector's grid lines (`grid.lines(axis.transpose()).1`), every cube
    /// dim for a linear one.
    #[must_use]
    pub fn part_dims(&self) -> &'static [u32] {
        match self.embedding {
            VecEmbedding::Aligned { axis, .. } => self.grid.lines(axis.transpose()).1,
            VecEmbedding::Linear => self.grid.dims(),
        }
    }

    /// The cube dims a fold of this vector combines over: a replicated
    /// vector's [`VectorLayout::part_dims`], since every grid line holds
    /// a full copy and folds it in place; every cube dim otherwise.
    #[must_use]
    pub fn fold_dims(&self) -> &'static [u32] {
        match self.embedding {
            VecEmbedding::Aligned { placement: Placement::Replicated, .. } => self.part_dims(),
            _ => self.grid.dims(),
        }
    }

    /// The chunk *part* a node is associated with (its grid column for
    /// row vectors, grid row for column vectors, node id for linear) —
    /// regardless of whether the node currently holds data.
    #[must_use]
    pub fn part_of(&self, node: NodeId) -> usize {
        match &self.embedding {
            VecEmbedding::Aligned { axis, .. } => self.grid.line_and_part(*axis, node).1,
            VecEmbedding::Linear => node,
        }
    }

    /// Whether `node` holds its chunk under this embedding.
    #[must_use]
    pub fn holds(&self, node: NodeId) -> bool {
        match &self.embedding {
            VecEmbedding::Aligned { axis, placement: Placement::Concentrated(line) } => {
                self.grid.line_and_part(*axis, node).0 == *line
            }
            _ => true,
        }
    }

    /// Expected local chunk length at `node` (0 where the node holds
    /// nothing).
    #[must_use]
    pub fn local_len(&self, node: NodeId) -> usize {
        if self.holds(node) {
            self.dist.count(self.part_of(node))
        } else {
            0
        }
    }

    /// The primary copy's grid line as a mask test: `node & mask == bits`
    /// holds exactly on grid line 0 of a replicated vector, on the
    /// holding line of a concentrated one and on every node of a linear
    /// one — the nodes [`VectorLayout::primary_holder`] names.
    #[must_use]
    pub fn primary_line(&self) -> (usize, usize) {
        self.primary_line
    }

    /// Whether `node` is the primary (first) holder of a non-empty chunk:
    /// on the [`VectorLayout::primary_line`] and holding data. Exactly
    /// one node per non-empty chunk answers yes.
    #[inline]
    #[must_use]
    pub fn is_primary_holder(&self, node: NodeId) -> bool {
        let (mask, bits) = self.primary_line();
        node & mask == bits && self.local_len(node) > 0
    }

    /// The canonical holder of element `i`: the
    /// [`VectorLayout::primary_node`] of its part.
    #[must_use]
    pub fn primary_holder(&self, i: usize) -> NodeId {
        self.primary_node(self.dist.owner(i))
    }

    /// The node on the [`VectorLayout::primary_line`] associated with
    /// `part`: on grid line 0 of a replicated vector, on the holding line
    /// of a concentrated one, the node `part` itself for a linear one.
    #[must_use]
    pub fn primary_node(&self, part: usize) -> NodeId {
        match &self.embedding {
            VecEmbedding::Aligned { axis, placement } => {
                self.grid.node_on(*axis, placement.primary_line(), part)
            }
            VecEmbedding::Linear => part,
        }
    }

    /// Total elements the embedding places machine-wide (counts
    /// replicas): what the modelled nodes hold, not what the host stores.
    #[must_use]
    pub fn stored_elements(&self) -> usize {
        (0..self.grid.p()).map(|n| self.local_len(n)).sum()
    }

    /// A copy of this layout with a different placement (aligned only).
    ///
    /// # Panics
    /// Panics on linear layouts.
    #[must_use]
    pub fn with_placement(&self, placement: Placement) -> VectorLayout {
        match &self.embedding {
            VecEmbedding::Aligned { axis, .. } => {
                VectorLayout::aligned(self.n, self.grid, *axis, placement, self.dist.kind())
            }
            VecEmbedding::Linear => panic!("linear layouts have no placement"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridEncoding;
    use vmp_hypercube::topology::Cube;

    fn grid() -> ProcGrid {
        ProcGrid::new(Cube::new(4), 2) // 4x4
    }

    /// The nodes holding element `i`, spelled out from `holds` and
    /// `part_of`, in node order.
    fn holders(l: &VectorLayout, i: usize) -> Vec<NodeId> {
        let part = l.dist().owner(i);
        (0..l.grid().p()).filter(|&n| l.holds(n) && l.part_of(n) == part).collect()
    }

    #[test]
    fn replicated_row_vector_is_held_by_every_row() {
        let l = VectorLayout::aligned(10, grid(), Axis::Row, Placement::Replicated, Dist::Block);
        assert_eq!(l.dist().parts(), 4);
        for node in 0..16 {
            assert!(l.holds(node));
        }
        assert_eq!(l.stored_elements(), 40, "4 replicas of 10 elements");
        for i in 0..10 {
            assert_eq!(holders(&l, i).len(), 4);
        }
    }

    #[test]
    fn concentrated_row_vector_lives_on_one_grid_row() {
        let l =
            VectorLayout::aligned(10, grid(), Axis::Row, Placement::Concentrated(2), Dist::Block);
        let held: Vec<NodeId> = (0..16).filter(|&n| l.holds(n)).collect();
        assert_eq!(held.len(), 4);
        for &n in &held {
            assert_eq!(l.grid().grid_coords(n).0, 2);
        }
        assert_eq!(l.stored_elements(), 10);
        // Block chunking of 10 over 4 grid columns: 3, 3, 2, 2 elements;
        // grid row 2 is Gray code 3, its columns 0..4 Gray codes 0, 1, 3, 2.
        let primary: Vec<NodeId> = (0..10).map(|i| l.primary_holder(i)).collect();
        assert_eq!(primary, [12, 12, 12, 13, 13, 13, 15, 15, 14, 14]);
        for i in 0..10 {
            assert_eq!(holders(&l, i), [primary[i]]);
        }
    }

    #[test]
    fn col_vector_chunks_over_grid_rows() {
        let l = VectorLayout::aligned(12, grid(), Axis::Col, Placement::Replicated, Dist::Cyclic);
        assert_eq!(l.dist().parts(), 4);
        // Element 5 (cyclic) belongs to part 1 = grid row 1; holders are
        // all 4 nodes of grid row 1.
        let holders = holders(&l, 5);
        assert_eq!(holders.len(), 4);
        for &n in &holders {
            assert_eq!(l.grid().grid_coords(n).0, 1);
        }
        // The primary holders sit on grid column 0: grid row `r` is the
        // Gray code of `r` in the high two address bits.
        let primary: Vec<NodeId> = (0..12).map(|i| l.primary_holder(i)).collect();
        assert_eq!(primary, [0, 4, 12, 8].repeat(3));
    }

    #[test]
    fn linear_layout_spreads_over_all_nodes() {
        let l = VectorLayout::linear(33, grid(), Dist::Block);
        assert_eq!(l.dist().parts(), 16);
        assert_eq!(l.stored_elements(), 33);
        let lens: Vec<usize> = (0..16).map(|n| l.local_len(n)).collect();
        assert!(lens.iter().all(|&c| c == 2 || c == 3));
        for i in 0..33 {
            assert_eq!(holders(&l, i), [l.primary_holder(i)]);
        }
    }

    #[test]
    fn local_len_agrees_with_holders() {
        let layouts = [
            VectorLayout::aligned(9, grid(), Axis::Row, Placement::Replicated, Dist::Cyclic),
            VectorLayout::aligned(9, grid(), Axis::Col, Placement::Concentrated(3), Dist::Block),
            VectorLayout::linear(9, grid(), Dist::Cyclic),
        ];
        for layout in layouts {
            let mut per_node = [0usize; 16];
            for i in 0..9 {
                let slot = layout.dist().local_index(i);
                for n in holders(&layout, i) {
                    per_node[n] += 1;
                    assert!(slot < layout.local_len(n));
                }
            }
            for n in 0..16 {
                assert_eq!(per_node[n], layout.local_len(n), "node {n}");
            }
        }
    }

    #[test]
    fn primary_line_names_the_primary_holders() {
        for enc in [GridEncoding::Gray, GridEncoding::Binary] {
            let g = ProcGrid::with_encoding(Cube::new(5), 2, enc);
            for layout in [
                VectorLayout::aligned(9, g, Axis::Row, Placement::Replicated, Dist::Cyclic),
                VectorLayout::aligned(9, g, Axis::Col, Placement::Replicated, Dist::Block),
                VectorLayout::aligned(9, g, Axis::Row, Placement::Concentrated(3), Dist::Block),
                VectorLayout::aligned(9, g, Axis::Col, Placement::Concentrated(5), Dist::Cyclic),
                VectorLayout::linear(9, g, Dist::Cyclic),
            ] {
                let (mask, bits) = layout.primary_line();
                // Every part's first node on the line, whatever it holds.
                let on_line: Vec<NodeId> = (0..32).filter(|&n| n & mask == bits).collect();
                let parts: Vec<usize> = on_line.iter().map(|&n| layout.part_of(n)).collect();
                assert_eq!(parts.len(), layout.dist().parts(), "{layout:?}");
                for i in 0..9 {
                    assert!(on_line.contains(&layout.primary_holder(i)), "{layout:?} element {i}");
                    assert_eq!(layout.primary_holder(i), holders(&layout, i)[0], "{layout:?} {i}");
                }
                // The predicate names the same nodes, one per non-empty chunk.
                let primaries: Vec<NodeId> =
                    (0..32).filter(|&n| layout.is_primary_holder(n)).collect();
                let mut named: Vec<NodeId> = (0..9).map(|i| layout.primary_holder(i)).collect();
                named.sort_unstable();
                named.dedup();
                assert_eq!(primaries, named, "{layout:?}");
            }
        }
    }

    #[test]
    fn with_placement_switches_concentration() {
        let l = VectorLayout::aligned(8, grid(), Axis::Row, Placement::Replicated, Dist::Block);
        let c = l.with_placement(Placement::Concentrated(1));
        assert_eq!(c.stored_elements(), 8);
        assert_eq!(c.dist(), l.dist(), "chunking unchanged");
    }

    #[test]
    #[should_panic(expected = "concentration line")]
    fn bad_concentration_line_panics() {
        let _ =
            VectorLayout::aligned(8, grid(), Axis::Row, Placement::Concentrated(4), Dist::Block);
    }
}
