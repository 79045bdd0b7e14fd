//! Distributed matrix-matrix multiply — expressed in the four
//! primitives.
//!
//! `C = A B` decomposes into `k` rank-1 updates
//! `C += A[:, t] * B[t, :]`, each of which is exactly one
//! `extract_replicated` column, one `extract_replicated` row, and one
//! local `rank1_update` — the same three operations as a Gaussian
//! elimination step without the pivoting. This is the outer-product
//! (SUMMA-style) schedule of Johnsson & Ho's Boolean-cube matrix
//! multiplication expressed in shared-memory-style primitives, and it
//! shows the primitives compose into level-3 computations, not just the
//! paper's three applications.
//!
//! A panel-blocked variant trades `k/b`-fold fewer broadcast start-ups
//! for `b`-row panels of bandwidth, the classical start-up/bandwidth
//! trade the contemporaneous reports analyse.

use vmp_core::elem::Numeric;
use vmp_core::prelude::*;
use vmp_core::primitives;
use vmp_hypercube::machine::Hypercube;

/// `C = A B` on a shared grid: `A` is `m x k`, `B` is `k x n`, the
/// result is `m x n` with `A`'s row distribution and `B`'s column
/// distribution.
///
/// # Panics
/// Panics if the inner dimensions differ, or the operands do not share a
/// grid.
pub fn matmul<T: Numeric>(
    hc: &mut Hypercube,
    a: &DistMatrix<T>,
    b: &DistMatrix<T>,
) -> DistMatrix<T> {
    let (m, k) = (a.shape().rows, a.shape().cols);
    let (k2, n) = (b.shape().rows, b.shape().cols);
    assert_eq!(k, k2, "inner dimensions must agree: {k} vs {k2}");
    assert_eq!(
        a.layout().grid(),
        b.layout().grid(),
        "operands must live on the same processor grid"
    );
    let grid = a.layout().grid();
    let c_layout = MatrixLayout::new(
        MatShape::new(m, n),
        grid,
        a.layout().rows().kind(),
        b.layout().cols().kind(),
    );
    let mut c = DistMatrix::constant(c_layout, T::ZERO);

    for t in 0..k {
        let col_t = primitives::extract_replicated(hc, a, Axis::Col, t);
        let row_t = primitives::extract_replicated(hc, b, Axis::Row, t);
        // col_t is chunked by A's row distribution == C's row
        // distribution; row_t by B's column distribution == C's column
        // distribution: the rank-1 update is purely local.
        c.rank1_update(hc, &col_t, &row_t, |_, _, acc, ci, rj| acc + ci * rj);
    }
    c
}

/// Panel-blocked `C = A B`: broadcasts `panel`-column slabs of `A` and
/// `panel`-row slabs of `B` per step instead of single lines. Fewer
/// start-ups (`k/panel` tree broadcasts), same arithmetic; identical
/// floats to [`matmul`] because each `c_ij` accumulates in the same `t`
/// order.
pub fn matmul_panelled<T: Numeric>(
    hc: &mut Hypercube,
    a: &DistMatrix<T>,
    b: &DistMatrix<T>,
    panel: usize,
) -> DistMatrix<T> {
    assert!(panel > 0, "panel width must be positive");
    let (m, k) = (a.shape().rows, a.shape().cols);
    let (k2, n) = (b.shape().rows, b.shape().cols);
    assert_eq!(k, k2, "inner dimensions must agree");
    assert_eq!(a.layout().grid(), b.layout().grid(), "operands must share a grid");
    let grid = a.layout().grid();
    let c_layout = MatrixLayout::new(
        MatShape::new(m, n),
        grid,
        a.layout().rows().kind(),
        b.layout().cols().kind(),
    );
    let mut c = DistMatrix::constant(c_layout, T::ZERO);

    let mut t0 = 0usize;
    while t0 < k {
        let width = panel.min(k - t0);
        let a_panel = primitives::extract_panel_replicated(hc, a, Axis::Col, t0, width);
        let b_panel = primitives::extract_panel_replicated(hc, b, Axis::Row, t0, width);
        // Local GEMM over the panel: every node multiplies its
        // (width x local_rows) column slab by the (width x local_cols)
        // row slab.
        primitives::panel_gemm(hc, &mut c, &a_panel, &b_panel);
        t0 += width;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::Dense;
    use crate::workloads;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn dist(d: &Dense, grid: ProcGrid) -> DistMatrix<f64> {
        DistMatrix::from_fn(
            MatrixLayout::cyclic(MatShape::new(d.rows(), d.cols()), grid),
            |i, j| d.get(i, j),
        )
    }

    fn close(a: &DistMatrix<f64>, b: &Dense, tol: f64) {
        let da = a.to_dense();
        for i in 0..b.rows() {
            for j in 0..b.cols() {
                assert!(
                    (da[i][j] - b.get(i, j)).abs() < tol,
                    "({i},{j}): {} vs {}",
                    da[i][j],
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn matmul_matches_serial() {
        for (m, k, n, dim) in
            [(6usize, 8usize, 10usize, 4u32), (16, 16, 16, 4), (5, 3, 7, 2), (12, 9, 4, 0)]
        {
            let da = workloads::random_matrix(m, k, 1);
            let db = workloads::random_matrix(k, n, 2);
            let grid = ProcGrid::square(Cube::new(dim));
            let a = dist(&da, grid);
            let b = dist(&db, grid);
            let mut hc = Hypercube::new(dim, CostModel::cm2());
            let c = matmul(&mut hc, &a, &b);
            c.assert_consistent();
            close(&c, &da.matmul(&db), 1e-10);
        }
    }

    #[test]
    fn panelled_matches_rank1_bitwise() {
        let (m, k, n) = (12usize, 10usize, 8usize);
        let da = workloads::random_matrix(m, k, 3);
        let db = workloads::random_matrix(k, n, 4);
        let grid = ProcGrid::square(Cube::new(4));
        let a = dist(&da, grid);
        let b = dist(&db, grid);
        let mut h1 = Hypercube::new(4, CostModel::cm2());
        let c1 = matmul(&mut h1, &a, &b);
        for panel in [1usize, 2, 3, 10, 64] {
            let mut h2 = Hypercube::new(4, CostModel::cm2());
            let c2 = matmul_panelled(&mut h2, &a, &b, panel);
            assert_eq!(c1.to_dense(), c2.to_dense(), "panel {panel}: identical accumulation order");
        }
    }

    #[test]
    fn panelling_saves_startups() {
        let nsize = 32usize;
        let da = workloads::random_matrix(nsize, nsize, 5);
        let db = workloads::random_matrix(nsize, nsize, 6);
        let grid = ProcGrid::square(Cube::new(6));
        let a = dist(&da, grid);
        let b = dist(&db, grid);
        let mut h1 = Hypercube::new(6, CostModel::cm2());
        let _ = matmul(&mut h1, &a, &b);
        let mut h2 = Hypercube::new(6, CostModel::cm2());
        let _ = matmul_panelled(&mut h2, &a, &b, 8);
        assert!(
            h2.elapsed_us() < h1.elapsed_us(),
            "panelled {} should beat rank-1 {}",
            h2.elapsed_us(),
            h1.elapsed_us()
        );
        assert!(h2.counters().message_steps < h1.counters().message_steps);
    }

    #[test]
    fn identity_is_neutral() {
        let n = 9usize;
        let d = workloads::random_matrix(n, n, 7);
        let grid = ProcGrid::square(Cube::new(4));
        let a = dist(&d, grid);
        let i_dense = Dense::identity(n);
        let id = dist(&i_dense, grid);
        let mut hc = Hypercube::new(4, CostModel::cm2());
        let left = matmul(&mut hc, &id, &a);
        close(&left, &d, 1e-12);
        let right = matmul(&mut hc, &a, &id);
        close(&right, &d, 1e-12);
    }

    #[test]
    fn rectangular_chains_associate() {
        // (A B) C == A (B C) numerically (tolerance) on small sizes.
        let da = workloads::random_matrix(4, 6, 8);
        let db = workloads::random_matrix(6, 5, 9);
        let dc = workloads::random_matrix(5, 3, 10);
        let grid = ProcGrid::square(Cube::new(2));
        let a = dist(&da, grid);
        let b = dist(&db, grid);
        let c = dist(&dc, grid);
        let mut hc = Hypercube::new(2, CostModel::cm2());
        let ab = matmul(&mut hc, &a, &b);
        let ab_c = matmul(&mut hc, &ab, &c);
        let bc = matmul(&mut hc, &b, &c);
        let a_bc = matmul(&mut hc, &a, &bc);
        let x = ab_c.to_dense();
        let y = a_bc.to_dense();
        for i in 0..4 {
            for j in 0..3 {
                assert!((x[i][j] - y[i][j]).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let grid = ProcGrid::square(Cube::new(2));
        let a = dist(&workloads::random_matrix(3, 4, 1), grid);
        let b = dist(&workloads::random_matrix(5, 3, 2), grid);
        let mut hc = Hypercube::new(2, CostModel::cm2());
        let _ = matmul(&mut hc, &a, &b);
    }
}
