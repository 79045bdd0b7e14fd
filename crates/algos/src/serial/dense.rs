//! Host-side dense matrices — the serial substrate.
//!
//! These are the "best serial algorithm" baselines the paper's
//! processor-time-product claim compares against, and the oracles the
//! parallel algorithms are tested to agree with.

/// A dense row-major host matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// A `rows x cols` zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from `f(i, j)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Dense { rows, cols, data }
    }

    /// Build from nested `Vec`s.
    ///
    /// # Panics
    /// Panics on ragged input.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Dense::from_fn(r, c, |i, j| rows[i][j])
    }

    /// The `n x n` identity.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Dense::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Borrow row `i` as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Swap two rows.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// `y = x^T A` (row-vector result of length `cols`).
    ///
    /// # Panics
    /// Panics if `x.len() != rows`.
    #[must_use]
    pub fn vecmat(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "x length must equal row count");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            for (yj, &aij) in y.iter_mut().zip(self.row(i)) {
                *yj += xi * aij;
            }
        }
        y
    }

    /// `y = A x` (column-vector result of length `rows`).
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "x length must equal column count");
        (0..self.rows).map(|i| self.row(i).iter().zip(x).map(|(&a, &b)| a * b).sum()).collect()
    }

    /// Dense matrix product `A * B`.
    #[must_use]
    pub fn matmul(&self, b: &Dense) -> Dense {
        assert_eq!(self.cols, b.rows, "inner dimensions must agree");
        let mut out = Dense::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    let v = out.get(i, j) + aik * b.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    /// Max-abs difference to another matrix.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Dense) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// Copy out as nested `Vec`s.
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.rows).map(|i| self.row(i).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Dense::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.to_rows(), vec![vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]]);
    }

    #[test]
    fn identity_matmul_is_identity_map() {
        let a = Dense::from_fn(3, 3, |i, j| (i + 2 * j) as f64);
        let i3 = Dense::identity(3);
        assert_eq!(a.matmul(&i3), a);
        assert_eq!(i3.matmul(&a), a);
    }

    #[test]
    fn vecmat_and_matvec() {
        let a = Dense::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(a.vecmat(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
        assert_eq!(a.matvec(&[1.0, -1.0]), vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn swap_rows_swaps() {
        let mut a = Dense::from_fn(3, 2, |i, _| i as f64);
        a.swap_rows(0, 2);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(2, 1), 0.0);
        a.swap_rows(1, 1);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn matmul_matches_hand_example() {
        let a = Dense::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Dense::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.to_rows(), vec![vec![19.0, 22.0], vec![43.0, 50.0]]);
    }

    #[test]
    fn max_abs_diff_measures_distance() {
        let a = Dense::identity(2);
        let mut b = Dense::identity(2);
        b.set(0, 1, -0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}
