//! Serial Gaussian elimination: LU factorisation with partial pivoting.
//!
//! The serial oracle for the parallel Gaussian-elimination routine and
//! the "best serial algorithm" term of the processor-time-product claim.

use super::dense::Dense;

/// An LU factorisation with partial pivoting: `P A = L U`, stored
/// compactly (`L` strictly below the diagonal with implicit unit
/// diagonal, `U` on and above).
#[derive(Debug, Clone)]
pub struct Lu {
    /// Compact LU storage.
    pub lu: Dense,
    /// Row permutation: `perm[k]` is the original index of pivot row `k`.
    pub perm: Vec<usize>,
}

/// Why a factorisation or solve failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// A pivot column was numerically zero — the matrix is singular to
    /// working precision.
    Singular,
}

/// Factor `a` (square) with partial pivoting.
///
/// # Errors
/// [`LuError::Singular`] if no acceptable pivot exists at some step.
pub fn lu_factor(a: &Dense) -> Result<Lu, LuError> {
    assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
    let n = a.rows();
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();

    for k in 0..n {
        // Partial pivot: largest |a_ik| for i >= k.
        let (piv_row, piv_val) = (k..n)
            .map(|i| (i, lu.get(i, k)))
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("no NaN pivots"))
            .expect("non-empty pivot range");
        if piv_val.abs() < 1e-12 {
            return Err(LuError::Singular);
        }
        if piv_row != k {
            lu.swap_rows(k, piv_row);
            perm.swap(k, piv_row);
        }
        let pivot = lu.get(k, k);
        for i in k + 1..n {
            let l = lu.get(i, k) / pivot;
            lu.set(i, k, l);
            for j in k + 1..n {
                let v = lu.get(i, j) - l * lu.get(k, j);
                lu.set(i, j, v);
            }
        }
    }
    Ok(Lu { lu, perm })
}

impl Lu {
    /// Solve `A x = b` using the factorisation.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n);
        // Forward substitution on permuted b (L has unit diagonal).
        let mut y: Vec<f64> = self.perm.iter().map(|&pi| b[pi]).collect();
        for i in 1..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.lu.get(i, j) * y[j];
            }
            y[i] = s;
        }
        // Back substitution with U.
        let mut x = y;
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in i + 1..n {
                s -= self.lu.get(i, j) * x[j];
            }
            x[i] = s / self.lu.get(i, i);
        }
        x
    }
}

/// Convenience: factor and solve in one call.
///
/// # Errors
/// [`LuError::Singular`] for singular systems.
pub fn solve(a: &Dense, b: &[f64]) -> Result<Vec<f64>, LuError> {
    Ok(lu_factor(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Determinant of the factorised matrix: the product of `U`'s
    /// diagonal times the parity of `perm` (even when `n` minus its
    /// cycle count is even).
    fn det(f: &Lu) -> f64 {
        let n = f.lu.rows();
        let mut seen = vec![false; n];
        let mut cycles = 0;
        for start in 0..n {
            if !seen[start] {
                cycles += 1;
                let mut i = start;
                while !seen[i] {
                    seen[i] = true;
                    i = f.perm[i];
                }
            }
        }
        let sign = if (n - cycles) % 2 == 0 { 1.0 } else { -1.0 };
        (0..n).map(|i| f.lu.get(i, i)).product::<f64>() * sign
    }

    /// `L * U`, which equals `P A`.
    fn reconstruct(f: &Lu) -> Dense {
        let n = f.lu.rows();
        let l = Dense::from_fn(n, n, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Greater => f.lu.get(i, j),
            std::cmp::Ordering::Equal => 1.0,
            std::cmp::Ordering::Less => 0.0,
        });
        let u = Dense::from_fn(n, n, |i, j| if j >= i { f.lu.get(i, j) } else { 0.0 });
        l.matmul(&u)
    }

    /// The rows of `a` in pivot order, `P A`.
    fn permuted(f: &Lu, a: &Dense) -> Dense {
        Dense::from_fn(a.rows(), a.cols(), |i, j| a.get(f.perm[i], j))
    }

    fn wilkinsonish(n: usize) -> Dense {
        // A well-conditioned but pivot-requiring test matrix.
        Dense::from_fn(n, n, |i, j| {
            if i == j {
                0.1 + (i as f64) * 0.01
            } else {
                1.0 / ((i + 2 * j + 2) as f64)
            }
        })
    }

    #[test]
    fn factor_reconstructs_pa() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let a = wilkinsonish(n);
            let f = lu_factor(&a).expect("nonsingular");
            let pa = permuted(&f, &a);
            let lu = reconstruct(&f);
            assert!(pa.max_abs_diff(&lu) < 1e-10, "n = {n}: residual {}", pa.max_abs_diff(&lu));
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        for n in [1usize, 3, 7, 16] {
            let a = Dense::from_fn(n, n, |i, j| {
                if i == j {
                    (n as f64) + 1.0
                } else {
                    ((i * 7 + j * 3) % 5) as f64 * 0.25
                }
            });
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let b = a.matvec(&x_true);
            let x = solve(&a, &b).expect("diag dominant");
            for (xs, xt) in x.iter().zip(&x_true) {
                assert!((xs - xt).abs() < 1e-9, "n = {n}");
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Dense::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]);
        let x = solve(&a, &[3.0, 4.0]).expect("nonsingular despite zero pivot position");
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Dense::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(lu_factor(&a).unwrap_err(), LuError::Singular);
    }

    #[test]
    fn determinant_of_permutation_heavy_matrix() {
        // Anti-diagonal identity: det = sign of the reversal permutation.
        let n = 4;
        let a = Dense::from_fn(n, n, |i, j| if i + j == n - 1 { 1.0 } else { 0.0 });
        let f = lu_factor(&a).expect("nonsingular");
        assert!((det(&f) - 1.0).abs() < 1e-12, "reversal of 4 has sign +1");
        let det2 = det(&lu_factor(&Dense::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]])).unwrap());
        assert!((det2 - 6.0).abs() < 1e-12);
        // One swap: det [[0, 1], [1, 0]] = -1.
        let f = lu_factor(&Dense::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]])).unwrap();
        assert!((det(&f) + 1.0).abs() < 1e-12, "a single swap is odd");
    }
}
