//! `distribute`: replicate a vector across all rows (or columns) of a new
//! matrix — the APL-style broadcast, and the inverse of `reduce`.

use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{Axis, Dist, MatShape, MatrixLayout, VecEmbedding};

use crate::elem::Scalar;
use crate::matrix::DistMatrix;
use crate::vector::DistVector;

/// Build the `count x n` (Row) or `n x count` (Col) matrix whose every
/// row (column) is `v`.
///
/// `v` must be axis-aligned. A **replicated** vector distributes with no
/// communication at all: each node already holds the chunk its block
/// needs and just replicates it locally — this zero-communication path is
/// the payoff of the replicated embedding `reduce` returns. A
/// **concentrated** vector first broadcasts its chunks along the
/// orthogonal grid dims (`d_r` tree steps). Linear vectors must be
/// remapped first ([`crate::remap::remap_vector`]) — the explicit
/// embedding change the paper describes.
///
/// `stack_kind` chooses the distribution of the *new* axis (the `count`
/// rows for `Axis::Row`).
///
/// # Panics
/// Panics if `v` is linear-embedded.
pub fn distribute<T: Scalar>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    count: usize,
    stack_kind: Dist,
) -> DistMatrix<T> {
    let axis = match v.layout().embedding() {
        VecEmbedding::Aligned { axis, .. } => *axis,
        VecEmbedding::Linear => {
            panic!("distribute requires an axis-aligned vector; remap the linear embedding first")
        }
    };
    // Get every node a copy of its chunk.
    let v = crate::remap::replicate(hc, v);
    stack(hc, &v, axis, count, stack_kind)
}

/// The local phase of [`distribute`]: every node replicates its part of
/// the `axis`-aligned `v`, which it holds once `v` is replicated, into
/// its block of the `count x n` (Row) or `n x count` (Col) matrix. No
/// communication; charges the moves.
pub(crate) fn stack<T: Scalar>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    axis: Axis,
    count: usize,
    stack_kind: Dist,
) -> DistMatrix<T> {
    let vl = v.layout();
    let grid = vl.grid();
    let (n, kind) = (vl.n(), vl.dist().kind());
    let layout = match axis {
        Axis::Row => MatrixLayout::new(MatShape::new(count, n), grid, stack_kind, kind),
        Axis::Col => MatrixLayout::new(MatShape::new(n, count), grid, kind, stack_kind),
    };
    let p = grid.p();
    let total: usize = (0..p).map(|node| layout.local_len(node)).sum();
    let mut locals = NodeSlab::with_capacity(p, total);
    for node in 0..p {
        let (lr, lc) = layout.local_shape(node);
        // A row vector's part is the grid column, a column vector's the row.
        let (gr, gc) = grid.grid_coords(node);
        let chunk = &v.chunks()[if axis == Axis::Row { gc } else { gr }];
        locals.push_seg_with(|buf| match axis {
            Axis::Row => {
                debug_assert_eq!(chunk.len(), lc, "node {node} chunk/column mismatch");
                for _ in 0..lr {
                    buf.extend_from_slice(chunk);
                }
            }
            Axis::Col => {
                debug_assert_eq!(chunk.len(), lr, "node {node} chunk/row mismatch");
                for &x in chunk {
                    buf.extend(std::iter::repeat_n(x, lc));
                }
            }
        });
    }
    hc.charge_moves(layout.max_local_len());
    DistMatrix::from_slab(layout, locals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Placement, ProcGrid, VectorLayout};

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    fn grid(dim: u32, dr: u32) -> ProcGrid {
        ProcGrid::new(Cube::new(dim), dr)
    }

    #[test]
    fn distribute_replicated_row_vector_is_communication_free() {
        let mut hc = machine(4);
        let vl =
            VectorLayout::aligned(9, grid(4, 2), Axis::Row, Placement::Replicated, Dist::Cyclic);
        let v = DistVector::from_fn(vl, |j| j as f64 * 1.5);
        let m = distribute(&mut hc, &v, 6, Dist::Cyclic);
        m.assert_consistent();
        assert_eq!(m.shape(), MatShape::new(6, 9));
        for i in 0..6 {
            for j in 0..9 {
                assert_eq!(m.get(i, j), j as f64 * 1.5);
            }
        }
        assert_eq!(hc.counters().message_steps, 0, "no communication");
        assert!(hc.counters().local_moves > 0, "local replication is charged");
    }

    #[test]
    fn distribute_concentrated_broadcasts_first() {
        let mut hc = machine(4);
        let vl = VectorLayout::aligned(
            8,
            grid(4, 2),
            Axis::Row,
            Placement::Concentrated(3),
            Dist::Block,
        );
        let v = DistVector::from_fn(vl, |j| (j * j) as i64);
        let m = distribute(&mut hc, &v, 5, Dist::Block);
        m.assert_consistent();
        for i in 0..5 {
            for j in 0..8 {
                assert_eq!(m.get(i, j), (j * j) as i64);
            }
        }
        assert_eq!(hc.counters().message_steps, 2, "d_r broadcast steps");
    }

    #[test]
    fn distribute_col_vector_stacks_columns() {
        let mut hc = machine(4);
        let vl =
            VectorLayout::aligned(7, grid(4, 2), Axis::Col, Placement::Replicated, Dist::Cyclic);
        let v = DistVector::from_fn(vl, |i| i as i64 - 3);
        let m = distribute(&mut hc, &v, 4, Dist::Block);
        m.assert_consistent();
        assert_eq!(m.shape(), MatShape::new(7, 4));
        for i in 0..7 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), i as i64 - 3);
            }
        }
    }

    #[test]
    fn reduce_of_distribute_scales_by_count() {
        // reduce(distribute(v, r), +) == r * v — the paper's algebraic
        // identity connecting the two primitives.
        use crate::elem::Sum;
        use crate::primitives::reduce;
        let mut hc = machine(4);
        let vl =
            VectorLayout::aligned(10, grid(4, 2), Axis::Row, Placement::Replicated, Dist::Cyclic);
        let v = DistVector::from_fn(vl, |j| (j + 1) as f64);
        let m = distribute(&mut hc, &v, 8, Dist::Cyclic);
        let w = reduce(&mut hc, &m, Axis::Row, Sum);
        for j in 0..10 {
            assert!((w.get(j) - 8.0 * (j + 1) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn distribute_on_single_node() {
        let mut hc = machine(0);
        let vl =
            VectorLayout::aligned(3, grid(0, 0), Axis::Row, Placement::Replicated, Dist::Block);
        let v = DistVector::from_fn(vl, |j| j as i32);
        let m = distribute(&mut hc, &v, 2, Dist::Block);
        assert_eq!(m.to_dense(), vec![vec![0, 1, 2], vec![0, 1, 2]]);
    }

    #[test]
    #[should_panic(expected = "axis-aligned")]
    fn distribute_rejects_linear_vectors() {
        let mut hc = machine(2);
        let vl = VectorLayout::linear(4, grid(2, 1), Dist::Block);
        let v = DistVector::from_fn(vl, |j| j as i32);
        let _ = distribute(&mut hc, &v, 2, Dist::Block);
    }
}
