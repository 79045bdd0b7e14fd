//! `insert`: overwrite one row (or column) of a matrix with a vector.

use vmp_hypercube::machine::Hypercube;
use vmp_layout::{Axis, MatrixLayout, Placement, VecEmbedding};

use super::{line_and_slot, local_line};
use crate::elem::Scalar;
use crate::matrix::DistMatrix;
use crate::remap::charge_line_move;
use crate::vector::DistVector;

/// Overwrite row `index` (`Axis::Row`) or column `index` (`Axis::Col`) of
/// `m` with `v`.
///
/// `v` must be aligned along `axis` with the same chunking as the matrix.
/// If the target grid line already holds `v` (replicated vector, or
/// concentrated on exactly the owning line) the write is **purely
/// local**; a vector concentrated elsewhere is moved by one blocked
/// routed step per differing cube dimension.
///
/// # Panics
/// Panics on linear vectors (remap first), chunking mismatches, or an
/// out-of-range `index`.
pub fn insert<T: Scalar>(
    hc: &mut Hypercube,
    m: &mut DistMatrix<T>,
    axis: Axis,
    index: usize,
    v: &DistVector<T>,
) {
    let layout = *m.layout();
    let placement = check_insert(&layout, axis, index, v);

    // The grid line owning the target row/column already holds `v`'s
    // parts when `v` is replicated or concentrated there; from another
    // line they move there in one routed move.
    let (target_line, slot) = line_and_slot(&layout, axis, index);
    if let Placement::Concentrated(line) = placement {
        if line != target_line {
            charge_line_move(hc, v.layout(), line, target_line);
        }
    }

    // Local write on the target line.
    let grid = layout.grid();
    for (part, chunk) in v.chunks().iter_segs().enumerate() {
        let node = grid.node_on(axis, target_line, part);
        let shape = layout.local_shape(node);
        let line = local_line(m.locals_mut()[node].iter_mut(), axis, slot, shape);
        debug_assert_eq!(line.len(), chunk.len());
        for (x, &c) in line.zip(chunk) {
            *x = c;
        }
    }
    hc.charge_moves(layout.vector_dist(axis).max_count());
}

/// `insert`'s argument checks, shared with
/// [`crate::naive::naive_insert`] so both reject the same calls before
/// anything is charged: `index` in range, `v` aligned along `axis`
/// and chunked like the matrix. Returns `v`'s placement.
///
/// # Panics
/// Panics on any of those mistakes.
pub(crate) fn check_insert<T: Scalar>(
    layout: &MatrixLayout,
    axis: Axis,
    index: usize,
    v: &DistVector<T>,
) -> Placement {
    let count = layout.shape().vector_count(axis);
    assert!(index < count, "{axis:?} index {index} out of range 0..{count}");
    let (vaxis, placement) = match v.layout().embedding() {
        VecEmbedding::Aligned { axis: a, placement } => (*a, *placement),
        VecEmbedding::Linear => {
            panic!("insert requires an axis-aligned vector; remap the linear embedding first")
        }
    };
    assert_eq!(vaxis, axis, "vector orientation must match the insertion axis");
    assert_eq!(
        v.layout().dist(),
        layout.vector_dist(axis),
        "vector chunking must match the matrix's {axis:?} distribution"
    );
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Dist, MatShape, MatrixLayout, ProcGrid, VectorLayout};

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

    fn row_vec(
        m: &DistMatrix<f64>,
        placement: Placement,
        f: impl FnMut(usize) -> f64,
    ) -> DistVector<f64> {
        let vl = VectorLayout::aligned(
            m.shape().cols,
            m.layout().grid(),
            Axis::Row,
            placement,
            m.layout().cols().kind(),
        );
        DistVector::from_fn(vl, f)
    }

    #[test]
    fn insert_replicated_row_is_local() {
        let (mut hc, mut m) = setup(8, 6, Dist::Cyclic);
        let v = row_vec(&m, Placement::Replicated, |j| -(j as f64));
        insert(&mut hc, &mut m, Axis::Row, 3, &v);
        m.assert_consistent();
        for j in 0..6 {
            assert_eq!(m.get(3, j), -(j as f64));
        }
        for i in (0..8).filter(|&i| i != 3) {
            for j in 0..6 {
                assert_eq!(m.get(i, j), (i * 100 + j) as f64, "other rows untouched");
            }
        }
        assert_eq!(hc.counters().message_steps, 0);
    }

    #[test]
    fn insert_concentrated_on_owner_is_local() {
        let (mut hc, mut m) = setup(8, 6, Dist::Cyclic);
        let owner = m.layout().rows().owner(5);
        let v = row_vec(&m, Placement::Concentrated(owner), |j| 1000.0 + j as f64);
        insert(&mut hc, &mut m, Axis::Row, 5, &v);
        assert_eq!(hc.counters().message_steps, 0);
        for j in 0..6 {
            assert_eq!(m.get(5, j), 1000.0 + j as f64);
        }
    }

    #[test]
    fn insert_concentrated_elsewhere_routes_once() {
        let (mut hc, mut m) = setup(8, 6, Dist::Cyclic);
        let owner = m.layout().rows().owner(2);
        let other = (owner + 1) % m.layout().grid().pr();
        let v = row_vec(&m, Placement::Concentrated(other), |j| 7.0 * j as f64);
        insert(&mut hc, &mut m, Axis::Row, 2, &v);
        for j in 0..6 {
            assert_eq!(m.get(2, j), 7.0 * j as f64);
        }
        assert!(hc.counters().message_steps >= 1, "a routed move happened");
    }

    #[test]
    fn insert_column() {
        let (mut hc, mut m) = setup(7, 9, Dist::Block);
        let vl = VectorLayout::aligned(
            7,
            m.layout().grid(),
            Axis::Col,
            Placement::Replicated,
            m.layout().rows().kind(),
        );
        let v = DistVector::from_fn(vl, |i| (i as f64).powi(2));
        insert(&mut hc, &mut m, Axis::Col, 4, &v);
        m.assert_consistent();
        for i in 0..7 {
            assert_eq!(m.get(i, 4), (i as f64).powi(2));
            assert_eq!(m.get(i, 3), (i * 100 + 3) as f64);
        }
    }

    #[test]
    fn row_swap_via_extract_insert() {
        // The composite Gaussian elimination uses for pivoting.
        use crate::primitives::extract;
        let (mut hc, mut m) = setup(8, 8, Dist::Cyclic);
        let r2 = extract(&mut hc, &m, Axis::Row, 2);
        let r6 = extract(&mut hc, &m, Axis::Row, 6);
        insert(&mut hc, &mut m, Axis::Row, 6, &r2);
        insert(&mut hc, &mut m, Axis::Row, 2, &r6);
        for j in 0..8 {
            assert_eq!(m.get(2, j), (600 + j) as f64);
            assert_eq!(m.get(6, j), (200 + j) as f64);
        }
    }

    #[test]
    #[should_panic(expected = "orientation must match")]
    fn insert_rejects_wrong_axis() {
        let (mut hc, mut m) = setup(6, 6, Dist::Cyclic);
        let vl = VectorLayout::aligned(
            6,
            m.layout().grid(),
            Axis::Col,
            Placement::Replicated,
            Dist::Cyclic,
        );
        let v = DistVector::from_fn(vl, |_| 0.0);
        insert(&mut hc, &mut m, Axis::Row, 0, &v);
    }

    #[test]
    #[should_panic(expected = "chunking must match")]
    fn insert_rejects_mismatched_dist() {
        let (mut hc, mut m) = setup(6, 6, Dist::Cyclic);
        let vl = VectorLayout::aligned(
            6,
            m.layout().grid(),
            Axis::Row,
            Placement::Replicated,
            Dist::Block,
        );
        let v = DistVector::from_fn(vl, |_| 0.0);
        insert(&mut hc, &mut m, Axis::Row, 0, &v);
    }
}
