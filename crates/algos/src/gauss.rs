//! Parallel Gaussian elimination — the paper's second application.
//!
//! Forward elimination with partial pivoting on an augmented matrix
//! `[A | b]`, written entirely in the primitive vocabulary. Each
//! elimination step `k` is:
//!
//! 1. `extract(Col, k)` + an arg-max-abs reduction over rows `k..n` —
//!    the pivot search;
//! 2. a row swap when needed — two `extract`s and two `insert`s;
//! 3. `extract_replicated(Row, k)` and `extract_replicated(Col, k)` —
//!    the pivot row and multiplier column fan-out (the step the naive
//!    element-at-a-time router made an order of magnitude slower);
//! 4. a local rank-1 update of the trailing submatrix.
//!
//! With a **cyclic** layout the active submatrix stays spread over all
//! processors as it shrinks, keeping every step's local work at
//! `O(ceil(n/p_r) * ceil(n/p_c))` — this is why the default layout for
//! elimination is cyclic (bench T4 includes the block-layout ablation).

use vmp_core::elem::{ArgMaxAbs, Loc, ReduceOp};
use vmp_core::prelude::*;
use vmp_core::primitives;
use vmp_hypercube::machine::Hypercube;

use crate::serial::Dense;

/// Numerical tolerance for singularity detection.
pub const GE_EPS: f64 = 1e-12;

/// Gaussian elimination failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeError {
    /// No acceptable pivot at some elimination step.
    Singular,
}

/// Statistics of an elimination run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeStats {
    /// Number of row interchanges performed.
    pub row_swaps: usize,
}

/// Componentwise sum on `(f64, f64, f64)` — folds the three back-
/// substitution quantities (dot product, rhs, diagonal) in one butterfly.
#[derive(Debug, Clone, Copy, Default)]
struct Sum3;

impl ReduceOp<(f64, f64, f64)> for Sum3 {
    fn identity(&self) -> (f64, f64, f64) {
        (0.0, 0.0, 0.0)
    }
    fn combine(&self, a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
        (a.0 + b.0, a.1 + b.1, a.2 + b.2)
    }
}

/// Build the distributed augmented matrix `[A | b]` (`n x (n+1)`) from
/// host data, cyclically laid out on `grid`.
#[must_use]
pub fn build_augmented(a: &Dense, b: &[f64], grid: ProcGrid) -> DistMatrix<f64> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "square system expected");
    assert_eq!(b.len(), n, "rhs length");
    let layout = MatrixLayout::cyclic(MatShape::new(n, n + 1), grid);
    DistMatrix::from_fn(layout, |i, j| if j < n { a.get(i, j) } else { b[i] })
}

/// Forward elimination with partial pivoting, in place. On success the
/// first `n` columns are upper triangular (below-diagonal entries are
/// exact zeros from the rank-1 updates).
///
/// # Errors
/// [`GeError::Singular`] if a pivot column is numerically zero.
pub fn forward_eliminate(
    hc: &mut Hypercube,
    aug: &mut DistMatrix<f64>,
) -> Result<GeStats, GeError> {
    let mut stats = GeStats::default();
    forward_eliminate_range(hc, aug, 0, aug.shape().rows, &mut stats)?;
    Ok(stats)
}

/// Forward elimination restricted to columns `from..to` — the core of
/// [`forward_eliminate`]. Column `k`'s step depends only on the matrix
/// contents, so eliminating `0..n` in one call or in several ranges
/// (one column at a time, say, to time each step) produces bit-identical
/// results, clock and counters.
///
/// # Errors
/// [`GeError::Singular`] if a pivot column is numerically zero.
pub fn forward_eliminate_range(
    hc: &mut Hypercube,
    aug: &mut DistMatrix<f64>,
    from: usize,
    to: usize,
    stats: &mut GeStats,
) -> Result<(), GeError> {
    let n = aug.shape().rows;
    let width = aug.shape().cols;
    assert!(width > n, "augmented matrix expected (at least one rhs column)");
    assert!(from <= to && to <= n, "column range {from}..{to} out of 0..{n}");
    for k in from..to {
        eliminate_column(hc, aug, k, stats)?;
    }
    Ok(())
}

/// One elimination step: pivot search, row interchange, fan-out, rank-1
/// trailing update for column `k`.
fn eliminate_column(
    hc: &mut Hypercube,
    aug: &mut DistMatrix<f64>,
    k: usize,
    stats: &mut GeStats,
) -> Result<(), GeError> {
    let n = aug.shape().rows;
    let width = aug.shape().cols;

    // Pivot search: arg-max |a_ik| over i >= k.
    let col = primitives::extract(hc, aug, Axis::Col, k);
    let piv = col.reduce_lifted(hc, ArgMaxAbs, |i, v| {
        if i >= k {
            Loc::new(v, i)
        } else {
            Loc::new(0.0, usize::MAX)
        }
    });
    if piv.index == usize::MAX || piv.value.abs() < GE_EPS {
        return Err(GeError::Singular);
    }

    // Row interchange via extract/insert.
    if piv.index != k {
        let rk = primitives::extract(hc, aug, Axis::Row, k);
        let rp = primitives::extract(hc, aug, Axis::Row, piv.index);
        primitives::insert(hc, aug, Axis::Row, k, &rp);
        primitives::insert(hc, aug, Axis::Row, piv.index, &rk);
        stats.row_swaps += 1;
    }

    // Fan out the pivot row and the multiplier column.
    let row_k = primitives::extract_replicated(hc, aug, Axis::Row, k);
    let col_k = primitives::extract_replicated(hc, aug, Axis::Col, k);
    let akk = piv.value;

    // Trailing update on the active submatrix only — with a cyclic
    // layout the charged critical path shrinks as elimination
    // proceeds. Column k is set to exact zero (eliminated, not left
    // to roundoff).
    aug.rank1_update_ranged(hc, &col_k, &row_k, k + 1..n, k + 1..width, move |_, _, a, c, r| {
        a - (c / akk) * r
    });
    aug.rank1_update_ranged(hc, &col_k, &row_k, k + 1..n, k..k + 1, |_, _, _, _, _| 0.0);
    Ok(())
}

/// Back substitution on a forward-eliminated augmented matrix `[A | b]`,
/// reading the right-hand side from column `n`. The solution is
/// maintained as a replicated row-aligned vector and filled from the
/// bottom up; each step needs one row extraction and one fused
/// three-way reduction.
#[must_use]
pub fn back_substitute(hc: &mut Hypercube, aug: &DistMatrix<f64>) -> Vec<f64> {
    let n = aug.shape().rows;
    let width = aug.shape().cols;
    assert!(width > n, "augmented matrix expected (at least one rhs column)");
    let layout = VectorLayout::aligned(
        width,
        aug.layout().grid(),
        Axis::Row,
        Placement::Replicated,
        aug.layout().cols().kind(),
    );
    // x lives in slots 0..n; slots >= n (the rhs columns) stay 0.
    let mut x = DistVector::constant(layout, 0.0f64);

    for k in (0..n).rev() {
        let row = primitives::extract_replicated(hc, aug, Axis::Row, k);
        let (dot, rhs, akk) = row.zip_reduce(hc, &x, Sum3, move |j, r, xj| {
            (
                if j > k && j < n { r * xj } else { 0.0 }, // dot with known part
                if j == n { r } else { 0.0 },              // rhs_k
                if j == k { r } else { 0.0 },              // a_kk
            )
        });
        let xk = (rhs - dot) / akk;
        x.map_inplace(hc, |j, v| if j == k { xk } else { v });
    }
    x.to_dense()[..n].to_vec()
}

/// Solve `A x = b` end to end on the machine: build the augmented
/// matrix, eliminate, back-substitute.
///
/// # Errors
/// [`GeError::Singular`] for singular systems.
pub fn ge_solve(
    hc: &mut Hypercube,
    a: &Dense,
    b: &[f64],
    grid: ProcGrid,
) -> Result<(Vec<f64>, GeStats), GeError> {
    let mut aug = build_augmented(a, b, grid);
    let stats = forward_eliminate(hc, &mut aug)?;
    Ok((back_substitute(hc, &aug), stats))
}

/// Solve on an already-distributed augmented matrix (consumed in place).
///
/// # Errors
/// [`GeError::Singular`] for singular systems.
pub fn ge_solve_dist(
    hc: &mut Hypercube,
    aug: &mut DistMatrix<f64>,
) -> Result<(Vec<f64>, GeStats), GeError> {
    let stats = forward_eliminate(hc, aug)?;
    Ok((back_substitute(hc, aug), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;
    use crate::workloads;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn machine_and_grid(dim: u32) -> (Hypercube, ProcGrid) {
        (Hypercube::new(dim, CostModel::cm2()), ProcGrid::square(Cube::new(dim)))
    }

    #[test]
    fn solves_diag_dominant_to_truth() {
        for (n, dim) in [(4usize, 2u32), (9, 4), (16, 4), (25, 6)] {
            let (a, b, x_true) = workloads::diag_dominant_system(n, n as u64);
            let (mut hc, grid) = machine_and_grid(dim);
            let (x, _) = ge_solve(&mut hc, &a, &b, grid).expect("nonsingular");
            for (xs, xt) in x.iter().zip(&x_true) {
                assert!((xs - xt).abs() < 1e-8, "n = {n}, dim = {dim}");
            }
        }
    }

    #[test]
    fn matches_serial_lu_solution() {
        let n = 18;
        let a = workloads::random_matrix(n, n, 11);
        let b = workloads::random_vector(n, 12);
        let serial_x = serial::lu_solve(&a, &b).expect("random square is a.s. nonsingular");
        let (mut hc, grid) = machine_and_grid(4);
        let (x, _) = ge_solve(&mut hc, &a, &b, grid).expect("nonsingular");
        for (xs, xt) in x.iter().zip(&serial_x) {
            assert!((xs - xt).abs() < 1e-7);
        }
    }

    #[test]
    fn pivoting_engages_on_stress_matrix() {
        let n = 12;
        let a = workloads::pivot_stress_matrix(n, 5);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
        let b = a.matvec(&x_true);
        let (mut hc, grid) = machine_and_grid(4);
        let (x, stats) = ge_solve(&mut hc, &a, &b, grid).expect("nonsingular");
        assert!(stats.row_swaps > 0, "tiny diagonals must force swaps");
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-6);
        }
    }

    #[test]
    fn elimination_produces_exact_zeros_below_diagonal() {
        let n = 10;
        let (a, b, _) = workloads::diag_dominant_system(n, 77);
        let (mut hc, grid) = machine_and_grid(4);
        let mut aug = build_augmented(&a, &b, grid);
        forward_eliminate(&mut hc, &mut aug).expect("nonsingular");
        let d = aug.to_dense();
        for i in 0..n {
            for j in 0..i {
                assert_eq!(d[i][j], 0.0, "exact zero at ({i},{j})");
            }
        }
    }

    /// Eliminating in column ranges of any width — one column at a
    /// time as a per-step tracer does, or a few at a time — is one
    /// `forward_eliminate` call in payload bits, clock bits, counters
    /// and stats, fault-free and under transient drops.
    #[test]
    fn ranged_elimination_is_bit_identical_to_one_call() {
        use vmp_hypercube::fault::FaultPlan;
        let n = 13;
        let a = workloads::pivot_stress_matrix(n, 3);
        let b = workloads::random_vector(n, 4);
        let bits = |m: &DistMatrix<f64>| -> Vec<u64> {
            m.to_dense().into_iter().flatten().map(f64::to_bits).collect()
        };
        for dim in [2u32, 5] {
            for drops in [false, true] {
                let machine = || {
                    let (mut hc, grid) = machine_and_grid(dim);
                    if drops {
                        hc.install_faults(FaultPlan::none(9).with_drops(0.2, 0, u64::MAX));
                    }
                    (hc, grid)
                };
                let (mut hc_one, grid) = machine();
                let mut aug_one = build_augmented(&a, &b, grid);
                let stats_one = forward_eliminate(&mut hc_one, &mut aug_one).expect("nonsingular");
                assert!(stats_one.row_swaps > 0, "the stress matrix must pivot");
                if drops {
                    assert!(hc_one.counters().transient_drops > 0, "drops must fire");
                }
                for chunk in [1usize, 3, 7, n] {
                    let (mut hc, grid) = machine();
                    let mut aug = build_augmented(&a, &b, grid);
                    let mut stats = GeStats::default();
                    for from in (0..n).step_by(chunk) {
                        let to = (from + chunk).min(n);
                        forward_eliminate_range(&mut hc, &mut aug, from, to, &mut stats)
                            .expect("nonsingular");
                    }
                    let case = format!("dim {dim}, drops {drops}, chunk {chunk}");
                    assert_eq!(bits(&aug), bits(&aug_one), "{case}");
                    assert_eq!(hc.elapsed_us().to_bits(), hc_one.elapsed_us().to_bits(), "{case}");
                    assert_eq!(hc.counters(), hc_one.counters(), "{case}");
                    assert_eq!(stats, stats_one, "{case}");
                }
            }
        }
    }

    #[test]
    fn singular_system_reports_error() {
        let a = serial::Dense::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![0.5, 1.0, 1.5],
        ]);
        let (mut hc, grid) = machine_and_grid(2);
        assert_eq!(ge_solve(&mut hc, &a, &[1.0, 2.0, 0.5], grid).unwrap_err(), GeError::Singular);
    }

    #[test]
    fn result_is_identical_across_machine_sizes() {
        // Machine-size independence: forward elimination is pivot
        // selection (exact) plus elementwise arithmetic (identical
        // expressions), so the eliminated matrix is bit-identical across
        // cube dimensions. Back substitution reduces true sums, whose
        // tree order depends on p, so solutions agree to roundoff only.
        let n = 14;
        let a = workloads::random_matrix(n, n, 21);
        let b = workloads::random_vector(n, 22);
        let mut eliminated = Vec::new();
        let mut solutions = Vec::new();
        for dim in [0u32, 2, 4, 6] {
            let (mut hc, grid) = machine_and_grid(dim);
            let mut aug = build_augmented(&a, &b, grid);
            forward_eliminate(&mut hc, &mut aug).expect("nonsingular");
            eliminated.push(aug.to_dense());
            solutions.push(back_substitute(&mut hc, &aug));
        }
        for e in &eliminated[1..] {
            assert_eq!(e, &eliminated[0], "bit-identical elimination across p");
        }
        for s in &solutions[1..] {
            for (x, x0) in s.iter().zip(&solutions[0]) {
                assert!((x - x0).abs() < 1e-10 * (1.0 + x0.abs()), "solution to roundoff");
            }
        }
    }

    /// The back-substitution triple folded by `zip_reduce` against the
    /// spelled-out `zip` + `reduce_all` with [`Sum3`], on every vector
    /// embedding: same bits in all three sums, same clock, same counters.
    #[test]
    fn sum3_zip_reduce_is_bit_identical_to_zip_then_reduce_all() {
        let grid = ProcGrid::new(Cube::new(4), 2);
        let (xs, ys) = (workloads::random_vector(37, 31), workloads::random_vector(37, 32));
        for layout in [
            VectorLayout::linear(37, grid, Dist::Block),
            VectorLayout::aligned(37, grid, Axis::Row, Placement::Replicated, Dist::Cyclic),
            VectorLayout::aligned(37, grid, Axis::Col, Placement::Concentrated(1), Dist::Cyclic),
        ] {
            let (a, b) = (DistVector::from_slice(layout, &xs), DistVector::from_slice(layout, &ys));
            let f = |j: usize, r: f64, x: f64| {
                (if j > 5 { r * x } else { 0.0 }, if j == 3 { r } else { 0.0 }, r / (1.0 + x * x))
            };
            let (mut hc_ref, _) = machine_and_grid(4);
            let want = a.zip(&mut hc_ref, &b, f).reduce_all(&mut hc_ref, Sum3);
            let (mut hc, _) = machine_and_grid(4);
            let got = a.zip_reduce(&mut hc, &b, Sum3, f);
            let bits = |t: (f64, f64, f64)| (t.0.to_bits(), t.1.to_bits(), t.2.to_bits());
            assert_eq!(bits(got), bits(want));
            assert_eq!(hc.elapsed_us().to_bits(), hc_ref.elapsed_us().to_bits());
            assert_eq!(hc.counters(), hc_ref.counters());
        }
    }
}
