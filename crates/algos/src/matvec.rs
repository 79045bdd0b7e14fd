//! Vector-matrix multiply — the paper's first application.
//!
//! `y = x A` in the primitive vocabulary is exactly two operations:
//! combine each matrix element with the aligned vector element (local),
//! then `reduce` along the rows:
//!
//! ```text
//! y  =  reduce(+, Row,  A .* distribute(x))        -- conceptually
//!    =  reduce_zip(A, Col, x, *, Row, +)            -- fused, no temporary
//! ```
//!
//! Both the distribute-then-multiply spelling and the fused spelling are
//! provided; they are semantically identical, and the pair shows what the
//! fused fold buys: the distribute spelling costs one extra `m`-element
//! temporary and pass.

use vmp_core::elem::{Numeric, Sum};
use vmp_core::prelude::*;
use vmp_core::{primitives, remap};
use vmp_hypercube::machine::Hypercube;

/// `y = x^T A`: `x` is a column-aligned vector of length `rows`, the
/// result is a row-aligned replicated vector of length `cols`.
///
/// A concentrated `x` is replicated first (one broadcast — the embedding
/// change the primitives "indicate").
pub fn vecmat<T: Numeric>(
    hc: &mut Hypercube,
    x: &DistVector<T>,
    a: &DistMatrix<T>,
) -> DistVector<T> {
    let x = align(hc, x, a, Axis::Col);
    primitives::reduce_zip(hc, a, Axis::Col, &x, |_, _, aij, xi| aij * xi, Axis::Row, Sum)
}

/// `y = A x`: `x` is a row-aligned vector of length `cols`, the result a
/// column-aligned replicated vector of length `rows`.
pub fn matvec<T: Numeric>(
    hc: &mut Hypercube,
    a: &DistMatrix<T>,
    x: &DistVector<T>,
) -> DistVector<T> {
    let x = align(hc, x, a, Axis::Row);
    primitives::reduce_zip(hc, a, Axis::Row, &x, |_, _, aij, xj| aij * xj, Axis::Col, Sum)
}

/// The unfused spelling of [`vecmat`] through `distribute`: materialises
/// the `rows x cols` replication of `x`, multiplies elementwise, reduces.
/// Same result; one extra `m`-element temporary and pass — used by the
/// ablation bench.
pub fn vecmat_via_distribute<T: Numeric>(
    hc: &mut Hypercube,
    x: &DistVector<T>,
    a: &DistMatrix<T>,
) -> DistVector<T> {
    let x = align(hc, x, a, Axis::Col);
    let xm = primitives::distribute(hc, &x, a.shape().cols, a.layout().cols().kind());
    // xm is cols-stacked: xm[i][j] = x[i]; transposed orientation w.r.t. a.
    let prod = a.zip(hc, &xm, |aij, xi| aij * xi);
    primitives::reduce(hc, &prod, Axis::Row, Sum)
}

/// Bring `x` into the replicated `axis`-aligned embedding matching `a`.
fn align<T: Numeric>(
    hc: &mut Hypercube,
    x: &DistVector<T>,
    a: &DistMatrix<T>,
    axis: Axis,
) -> DistVector<T> {
    let want = VectorLayout::aligned(
        a.shape().vector_len(axis),
        a.layout().grid(),
        axis,
        Placement::Replicated,
        a.layout().vector_dist(axis).kind(),
    );
    assert_eq!(x.n(), want.n(), "vector length must match the matrix {axis:?} extent");
    match x.layout().embedding() {
        VecEmbedding::Aligned { axis: xa, placement }
            if *xa == axis && x.layout().dist() == want.dist() =>
        {
            match placement {
                Placement::Replicated => x.clone(),
                Placement::Concentrated(_) => remap::replicate(hc, x),
            }
        }
        _ => remap::remap_vector(hc, x, want),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::Dense;
    use crate::workloads;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn dist_matrix(d: &Dense, dim: u32) -> (Hypercube, DistMatrix<f64>) {
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = MatrixLayout::cyclic(MatShape::new(d.rows(), d.cols()), grid);
        let m = DistMatrix::from_fn(layout, |i, j| d.get(i, j));
        (Hypercube::new(dim, CostModel::cm2()), m)
    }

    fn close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn vecmat_matches_serial() {
        for (rows, cols, dim) in [(8usize, 8usize, 4u32), (13, 7, 4), (5, 20, 3), (32, 32, 6)] {
            let d = workloads::random_matrix(rows, cols, 1);
            let xh = workloads::random_vector(rows, 2);
            let (mut hc, a) = dist_matrix(&d, dim);
            let xl = VectorLayout::aligned(
                rows,
                a.layout().grid(),
                Axis::Col,
                Placement::Replicated,
                Dist::Cyclic,
            );
            let x = DistVector::from_slice(xl, &xh);
            let y = vecmat(&mut hc, &x, &a);
            y.assert_consistent();
            close(&y.to_dense(), &d.vecmat(&xh), 1e-10);
        }
    }

    #[test]
    fn matvec_matches_serial() {
        let d = workloads::random_matrix(9, 14, 3);
        let xh = workloads::random_vector(14, 4);
        let (mut hc, a) = dist_matrix(&d, 4);
        let xl = VectorLayout::aligned(
            14,
            a.layout().grid(),
            Axis::Row,
            Placement::Replicated,
            Dist::Cyclic,
        );
        let x = DistVector::from_slice(xl, &xh);
        let y = matvec(&mut hc, &a, &x);
        close(&y.to_dense(), &d.matvec(&xh), 1e-10);
    }

    #[test]
    fn vecmat_accepts_concentrated_and_linear_inputs() {
        let d = workloads::random_matrix(12, 6, 5);
        let xh = workloads::random_vector(12, 6);
        let expect = d.vecmat(&xh);
        // Concentrated input.
        let (mut hc, a) = dist_matrix(&d, 4);
        let xl = VectorLayout::aligned(
            12,
            a.layout().grid(),
            Axis::Col,
            Placement::Concentrated(1),
            Dist::Cyclic,
        );
        let x = DistVector::from_slice(xl, &xh);
        close(&vecmat(&mut hc, &x, &a).to_dense(), &expect, 1e-10);
        // Linear input: remapped automatically (embedding change).
        let (mut hc2, a2) = dist_matrix(&d, 4);
        let ll = VectorLayout::linear(12, a2.layout().grid(), Dist::Block);
        let xlin = DistVector::from_slice(ll, &xh);
        close(&vecmat(&mut hc2, &xlin, &a2).to_dense(), &expect, 1e-10);
    }

    #[test]
    fn fused_and_distribute_spellings_agree() {
        let d = workloads::random_matrix(10, 10, 7);
        let xh = workloads::random_vector(10, 8);
        let (mut hc1, a1) = dist_matrix(&d, 4);
        let xl1 = VectorLayout::aligned(
            10,
            a1.layout().grid(),
            Axis::Col,
            Placement::Replicated,
            Dist::Cyclic,
        );
        let x1 = DistVector::from_slice(xl1, &xh);
        let fused = vecmat(&mut hc1, &x1, &a1);
        let (mut hc2, a2) = dist_matrix(&d, 4);
        let xl2 = VectorLayout::aligned(
            10,
            a2.layout().grid(),
            Axis::Col,
            Placement::Replicated,
            Dist::Cyclic,
        );
        let x2 = DistVector::from_slice(xl2, &xh);
        let unfused = vecmat_via_distribute(&mut hc2, &x2, &a2);
        assert_eq!(fused.to_dense(), unfused.to_dense(), "same floats, different spelling");
        assert!(hc2.elapsed_us() > hc1.elapsed_us(), "fusion saves the temporary pass");
    }

    #[test]
    fn vecmat_on_single_processor() {
        let d = workloads::random_matrix(6, 4, 9);
        let xh = workloads::random_vector(6, 10);
        let (mut hc, a) = dist_matrix(&d, 0);
        let xl = VectorLayout::aligned(
            6,
            a.layout().grid(),
            Axis::Col,
            Placement::Replicated,
            Dist::Cyclic,
        );
        let x = DistVector::from_slice(xl, &xh);
        close(&vecmat(&mut hc, &x, &a).to_dense(), &d.vecmat(&xh), 1e-12);
        assert_eq!(hc.counters().message_steps, 0);
    }
}
