//! `reduce`: combine all rows (or columns) of a matrix into one vector.

use vmp_hypercube::collective;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{Axis, Placement, VectorLayout};

use crate::elem::{ReduceOp, Scalar};
use crate::matrix::DistMatrix;
use crate::vector::DistVector;

/// Fold every node's local block along `axis` into a partial vector:
/// for `Axis::Row`, partial `[lj] = op-fold over li`; for `Axis::Col`,
/// partial `[li] = op-fold over lj`. Returns the per-node partials (one
/// arena) and charges the local flops. The fold streams the block with
/// `chunks_exact` — contiguous row slices, same combine order as the
/// naive offset walk.
fn local_fold<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    op: O,
) -> NodeSlab<T> {
    let layout = m.layout();
    let p = layout.grid().p();
    let locals = m.locals();
    let total_hint: usize = (0..p)
        .map(|node| {
            let (lr, lc) = layout.local_shape(node);
            match axis {
                Axis::Row => lc,
                Axis::Col => lr,
            }
        })
        .sum();
    let partials = NodeSlab::build(p, total_hint, |node, out| {
        let (lr, lc) = layout.local_shape(node);
        let buf = &locals[node];
        match axis {
            Axis::Row => {
                // `out` may already hold earlier nodes' segments (the
                // builder hands one shared buffer); fold into this
                // node's freshly appended suffix only.
                let start = out.len();
                out.extend(std::iter::repeat_with(|| op.identity()).take(lc));
                if lc > 0 {
                    let acc = &mut out[start..];
                    for row in buf.chunks_exact(lc) {
                        for (a, &v) in acc.iter_mut().zip(row) {
                            *a = op.combine(*a, v);
                        }
                    }
                }
            }
            Axis::Col => {
                if lc == 0 {
                    out.extend(std::iter::repeat_with(|| op.identity()).take(lr));
                } else {
                    out.reserve(lr);
                    for row in buf.chunks_exact(lc) {
                        let mut a = op.identity();
                        for &v in row {
                            a = op.combine(a, v);
                        }
                        out.push(a);
                    }
                }
            }
        }
    });
    hc.charge_flops(layout.max_local_len());
    partials
}

/// The dims the partials must be combined over, and the result layout
/// factory.
fn comm_dims(m_layout: &vmp_layout::MatrixLayout, axis: Axis) -> Vec<u32> {
    match axis {
        // Combining all matrix rows means combining across grid rows,
        // i.e. over the cube dims that encode the grid-row index.
        Axis::Row => m_layout.grid().row_dims().to_vec(),
        Axis::Col => m_layout.grid().col_dims().to_vec(),
    }
}

fn result_layout(
    m_layout: &vmp_layout::MatrixLayout,
    axis: Axis,
    placement: Placement,
) -> VectorLayout {
    let n = m_layout.shape().vector_len(axis);
    let kind = m_layout.vector_dist(axis).kind();
    VectorLayout::aligned(n, m_layout.grid().clone(), axis, placement, kind)
}

/// Reduce all rows (`Axis::Row`) or columns (`Axis::Col`) of `m` into one
/// vector with the commutative associative operator `op`.
///
/// The result comes back **aligned and replicated** — the embedding an
/// all-reduce produces for free, and the one `distribute` and the
/// elementwise `zip_axis` combinators consume without further
/// communication.
///
/// Cost: `gamma * ceil(n_r/p_r) * ceil(n_c/p_c)` local fold +
/// `d_r * (alpha + (beta + gamma) * ceil(n_c/p_c))` butterfly (Row case).
pub fn reduce<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    op: O,
) -> DistVector<T> {
    let mut partials = local_fold(hc, m, axis, op);
    let dims = comm_dims(m.layout(), axis);
    collective::allreduce_slab(hc, &mut partials, &dims, |a, b| op.combine(a, b));
    DistVector::from_slab(result_layout(m.layout(), axis, Placement::Replicated), partials)
}

/// As [`reduce`], but the result is **concentrated** on one grid line
/// (`line` = a grid-row index for `Axis::Row`, a grid-column index for
/// `Axis::Col`), using a binomial-tree reduction instead of a butterfly.
/// Same asymptotic cost; the non-replicated embedding is what you want
/// when the vector immediately leaves the matrix world.
pub fn reduce_to<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    op: O,
    line: usize,
) -> DistVector<T> {
    let mut partials = local_fold(hc, m, axis, op);
    let dims = comm_dims(m.layout(), axis);
    let grid = m.layout().grid();
    let root_coord = match axis {
        Axis::Row => grid.row_coord(line),
        Axis::Col => grid.col_coord(line),
    };
    collective::reduce_slab(hc, &mut partials, &dims, root_coord, |a, b| op.combine(a, b));
    DistVector::from_slab(result_layout(m.layout(), axis, Placement::Concentrated(line)), partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::{Max, Min, Sum};
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Dist, MatShape, MatrixLayout, ProcGrid};

    fn setup(
        rows: usize,
        cols: usize,
        dim: u32,
        dr: u32,
        kind: Dist,
    ) -> (Hypercube, DistMatrix<f64>) {
        let layout = MatrixLayout::new(
            MatShape::new(rows, cols),
            ProcGrid::new(Cube::new(dim), dr),
            kind,
            kind,
        );
        let m = DistMatrix::from_fn(layout, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.0);
        (Hypercube::new(dim, CostModel::unit()), m)
    }

    fn dense_reduce(
        m: &DistMatrix<f64>,
        axis: Axis,
        f: impl Fn(f64, f64) -> f64,
        id: f64,
    ) -> Vec<f64> {
        let d = m.to_dense();
        match axis {
            Axis::Row => {
                (0..m.shape().cols).map(|j| d.iter().fold(id, |acc, row| f(acc, row[j]))).collect()
            }
            Axis::Col => d.iter().map(|row| row.iter().fold(id, |acc, &v| f(acc, v))).collect(),
        }
    }

    #[test]
    fn reduce_rows_sums_columns() {
        for kind in [Dist::Block, Dist::Cyclic] {
            let (mut hc, m) = setup(12, 9, 4, 2, kind);
            let v = reduce(&mut hc, &m, Axis::Row, Sum);
            v.assert_consistent();
            assert_eq!(v.n(), 9);
            let expect = dense_reduce(&m, Axis::Row, |a, b| a + b, 0.0);
            for (a, b) in v.to_dense().iter().zip(&expect) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reduce_cols_sums_rows() {
        let (mut hc, m) = setup(7, 13, 4, 1, Dist::Cyclic);
        let v = reduce(&mut hc, &m, Axis::Col, Sum);
        v.assert_consistent();
        assert_eq!(v.n(), 7);
        let expect = dense_reduce(&m, Axis::Col, |a, b| a + b, 0.0);
        for (a, b) in v.to_dense().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn reduce_with_min_and_max() {
        let (mut hc, m) = setup(10, 10, 4, 2, Dist::Block);
        let vmax = reduce(&mut hc, &m, Axis::Row, Max);
        let vmin = reduce(&mut hc, &m, Axis::Col, Min);
        assert_eq!(vmax.to_dense(), dense_reduce(&m, Axis::Row, f64::max, f64::NEG_INFINITY));
        assert_eq!(vmin.to_dense(), dense_reduce(&m, Axis::Col, f64::min, f64::INFINITY));
    }

    #[test]
    fn reduce_to_concentrates_on_requested_line() {
        let (mut hc, m) = setup(8, 8, 4, 2, Dist::Cyclic);
        let v = reduce_to(&mut hc, &m, Axis::Row, Sum, 2);
        v.assert_consistent();
        match v.layout().embedding() {
            vmp_layout::VecEmbedding::Aligned { placement: Placement::Concentrated(2), .. } => {}
            other => panic!("unexpected embedding {other:?}"),
        }
        let expect = dense_reduce(&m, Axis::Row, |a, b| a + b, 0.0);
        for (a, b) in v.to_dense().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(v.layout().stored_elements(), 8, "exactly one copy");
    }

    #[test]
    fn reduce_charges_dr_message_steps() {
        let (mut hc, m) = setup(16, 16, 4, 3, Dist::Block);
        let _ = reduce(&mut hc, &m, Axis::Row, Sum);
        assert_eq!(hc.counters().message_steps, 3, "d_r butterfly steps");
        let (mut hc2, m2) = setup(16, 16, 4, 3, Dist::Block);
        let _ = reduce(&mut hc2, &m2, Axis::Col, Sum);
        assert_eq!(hc2.counters().message_steps, 1, "d_c butterfly steps");
    }

    #[test]
    fn reduce_on_single_node_machine() {
        let (mut hc, m) = setup(5, 4, 0, 0, Dist::Block);
        let v = reduce(&mut hc, &m, Axis::Row, Sum);
        let expect = dense_reduce(&m, Axis::Row, |a, b| a + b, 0.0);
        assert_eq!(v.to_dense(), expect);
        assert_eq!(hc.counters().message_steps, 0, "no communication on p = 1");
    }

    #[test]
    fn reduce_tall_skinny_and_wide_flat() {
        let (mut hc, m) = setup(64, 2, 4, 2, Dist::Cyclic);
        let v = reduce(&mut hc, &m, Axis::Row, Sum);
        let expect = dense_reduce(&m, Axis::Row, |a, b| a + b, 0.0);
        for (a, b) in v.to_dense().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
        let (mut hc2, m2) = setup(2, 64, 4, 2, Dist::Cyclic);
        let w = reduce(&mut hc2, &m2, Axis::Col, Sum);
        let expect2 = dense_reduce(&m2, Axis::Col, |a, b| a + b, 0.0);
        for (a, b) in w.to_dense().iter().zip(&expect2) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
