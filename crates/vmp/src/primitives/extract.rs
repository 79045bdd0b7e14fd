//! `extract`: pull one row (or column) of a matrix out as a vector.

use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{Axis, Placement, VectorLayout};

use super::{line_and_slot, local_line};
use crate::elem::Scalar;
use crate::matrix::DistMatrix;
use crate::vector::DistVector;

/// Extract row `index` (`Axis::Row`) or column `index` (`Axis::Col`) of
/// `m` as a vector.
///
/// The row physically lives on one grid row — the one owning matrix row
/// `index` — so extraction is a **local copy** on those nodes and the
/// result comes back **concentrated** on that grid line. That embedding
/// is exactly what the data placement dictates; replicating it (to feed
/// `distribute` or an elementwise combinator) is an explicit embedding
/// change: call [`extract_replicated`] or [`crate::remap::replicate`].
pub fn extract<T: Scalar>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    index: usize,
) -> DistVector<T> {
    let layout = m.layout();
    let (grid, shape) = (layout.grid(), layout.shape());
    let count = shape.vector_count(axis);
    assert!(index < count, "{axis:?} index {index} out of range 0..{count}");
    let (line, slot) = line_and_slot(layout, axis, index);
    // Part `q` is the local line of the node on `line` holding it.
    let parts = grid.lines(axis.transpose()).0;
    let chunks = NodeSlab::build(parts, shape.vector_len(axis), |part, buf| {
        let node = grid.node_on(axis, line, part);
        buf.extend(local_line(m.locals()[node].iter(), axis, slot, layout.local_shape(node)));
    });
    let along = layout.vector_dist(axis);
    hc.charge_moves(along.max_count());
    let vl = VectorLayout::aligned(
        shape.vector_len(axis),
        grid,
        axis,
        Placement::Concentrated(line),
        along.kind(),
    );
    DistVector::from_chunks(vl, chunks)
}

/// [`extract`] followed by replication across the orthogonal grid dims —
/// the common composite when the extracted line immediately feeds an
/// elementwise combination (Gaussian elimination's pivot row, simplex's
/// pivot column). One local copy + `d_r` (resp. `d_c`) broadcast steps,
/// charged without copying: every grid line holds the extracted parts.
pub fn extract_replicated<T: Scalar>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    index: usize,
) -> DistVector<T> {
    let v = extract(hc, m, axis, index);
    crate::remap::replicate_owned(hc, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Dist, MatShape, MatrixLayout, ProcGrid, VecEmbedding};

    fn setup(rows: usize, cols: usize, kind: Dist) -> (Hypercube, DistMatrix<f64>) {
        let layout = MatrixLayout::new(
            MatShape::new(rows, cols),
            ProcGrid::new(Cube::new(4), 2),
            kind,
            kind,
        );
        let m = DistMatrix::from_fn(layout, |i, j| (i * 100 + j) as f64);
        (Hypercube::new(4, CostModel::unit()), m)
    }

    #[test]
    fn extract_row_returns_the_row_concentrated() {
        for kind in [Dist::Block, Dist::Cyclic] {
            let (mut hc, m) = setup(9, 7, kind);
            for index in [0usize, 4, 8] {
                let v = extract(&mut hc, &m, Axis::Row, index);
                v.assert_consistent();
                assert_eq!(v.n(), 7);
                assert_eq!(
                    v.to_dense(),
                    (0..7).map(|j| (index * 100 + j) as f64).collect::<Vec<_>>()
                );
                let expected_line = m.layout().rows().owner(index);
                match v.layout().embedding() {
                    VecEmbedding::Aligned {
                        axis: Axis::Row,
                        placement: Placement::Concentrated(l),
                    } => {
                        assert_eq!(*l, expected_line);
                    }
                    other => panic!("unexpected embedding {other:?}"),
                }
                assert_eq!(v.layout().stored_elements(), 7, "single copy");
            }
        }
    }

    #[test]
    fn extract_col_returns_the_column() {
        let (mut hc, m) = setup(8, 6, Dist::Cyclic);
        let v = extract(&mut hc, &m, Axis::Col, 3);
        v.assert_consistent();
        assert_eq!(v.n(), 8);
        assert_eq!(v.to_dense(), (0..8).map(|i| (i * 100 + 3) as f64).collect::<Vec<_>>());
    }

    #[test]
    fn extract_is_communication_free() {
        let (mut hc, m) = setup(8, 8, Dist::Block);
        let _ = extract(&mut hc, &m, Axis::Row, 5);
        assert_eq!(hc.counters().message_steps, 0);
        assert_eq!(hc.counters().elements_transferred, 0);
        assert!(hc.counters().local_moves > 0);
    }

    #[test]
    fn extract_replicated_broadcasts_dr_steps() {
        let (mut hc, m) = setup(8, 8, Dist::Cyclic);
        let v = extract_replicated(&mut hc, &m, Axis::Row, 2);
        v.assert_consistent();
        assert_eq!(hc.counters().message_steps, 2, "d_r = 2 broadcast steps");
        assert_eq!(v.layout().stored_elements(), 8 * 4, "replicated on every grid row");
        assert_eq!(v.to_dense(), (0..8).map(|j| (200 + j) as f64).collect::<Vec<_>>());
    }

    #[test]
    fn insert_of_extract_is_identity() {
        use crate::primitives::insert;
        let (mut hc, m) = setup(6, 6, Dist::Cyclic);
        let mut m2 = m.clone();
        let v = extract(&mut hc, &m, Axis::Row, 4);
        insert(&mut hc, &mut m2, Axis::Row, 4, &v);
        assert_eq!(m2.to_dense(), m.to_dense());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn extract_checks_bounds() {
        let (mut hc, m) = setup(4, 4, Dist::Block);
        let _ = extract(&mut hc, &m, Axis::Row, 4);
    }
}
