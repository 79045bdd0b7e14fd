//! Jacobi stencil relaxation — a fourth application domain.
//!
//! The technical-report corpus around the paper is full of grid PDE
//! solvers (ADI, Poisson, Navier–Stokes) on the same machine; the
//! primitive vocabulary plus NEWS shifts ([`vmp_core::shift`]) covers
//! their core kernel: Jacobi relaxation of the 2-D Poisson equation
//! `-laplace(u) = f` on the unit square with homogeneous Dirichlet
//! boundary,
//!
//! ```text
//! u'[i][j] = (u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1] + h^2 f[i][j]) / 4
//! ```
//!
//! Each iteration is four shifts (boundary lines only, on the block
//! layout) and one five-operand elementwise pass. The parallel iteration
//! is bit-identical to the serial oracle (same association order).

use vmp_core::prelude::*;
use vmp_core::shift::{shift, Boundary};
use vmp_hypercube::machine::Hypercube;

use crate::serial::Dense;

/// One Jacobi sweep on the machine: returns the relaxed field.
/// `u` and `f` are `n x n` interior grids (boundary handled as `u = 0`
/// via `Fill(0.0)` shifts); `h2` is the squared mesh width.
#[must_use]
pub fn jacobi_step(
    hc: &mut Hypercube,
    u: &DistMatrix<f64>,
    f: &DistMatrix<f64>,
    h2: f64,
) -> DistMatrix<f64> {
    assert_eq!(u.shape(), f.shape(), "field and rhs shapes must match");
    assert_eq!(u.layout(), f.layout(), "field and rhs must share a layout");
    // Neighbour fields (u[i-1][j] arrives by shifting rows down, etc.).
    let up = shift(hc, u, Axis::Col, 1, Boundary::Fill(0.0)); // up[i][j] = u[i-1][j]
    let down = shift(hc, u, Axis::Col, -1, Boundary::Fill(0.0)); // u[i+1][j]
    let left = shift(hc, u, Axis::Row, 1, Boundary::Fill(0.0)); // u[i][j-1]
    let right = shift(hc, u, Axis::Row, -1, Boundary::Fill(0.0)); // u[i][j+1]

    // Fused five-operand elementwise combine, fixed association order so
    // the serial oracle can reproduce it bitwise.
    let s1 = up.zip(hc, &down, |a, b| a + b);
    let s2 = left.zip(hc, &right, |a, b| a + b);
    let s3 = s1.zip(hc, &s2, |a, b| a + b);
    s3.zip(hc, f, move |s, fv| (s + h2 * fv) / 4.0)
}

/// Run `iterations` Jacobi sweeps from `u = 0`.
#[must_use]
pub fn jacobi_poisson(
    hc: &mut Hypercube,
    f: &DistMatrix<f64>,
    h2: f64,
    iterations: usize,
) -> DistMatrix<f64> {
    let mut u = DistMatrix::constant(*f.layout(), 0.0f64);
    for _ in 0..iterations {
        u = jacobi_step(hc, &u, f, h2);
    }
    u
}

/// Serial oracle for one sweep, same association order.
#[must_use]
pub fn jacobi_step_serial(u: &Dense, f: &Dense, h2: f64) -> Dense {
    let n = u.rows();
    let at = |i: isize, j: isize| -> f64 {
        if i < 0 || j < 0 || i >= n as isize || j >= n as isize {
            0.0
        } else {
            u.get(i as usize, j as usize)
        }
    };
    Dense::from_fn(n, n, |i, j| {
        let (i, j) = (i as isize, j as isize);
        let s1 = at(i - 1, j) + at(i + 1, j);
        let s2 = at(i, j - 1) + at(i, j + 1);
        ((s1 + s2) + h2 * f.get(i as usize, j as usize)) / 4.0
    })
}

/// Serial oracle for the full relaxation.
#[must_use]
pub fn jacobi_poisson_serial(f: &Dense, h2: f64, iterations: usize) -> Dense {
    let n = f.rows();
    let mut u = Dense::zeros(n, n);
    for _ in 0..iterations {
        u = jacobi_step_serial(&u, f, h2);
    }
    u
}

/// Max-norm residual `|| -laplace(u)/h2 - f ||_inf` of a candidate field
/// (host-side diagnostic).
#[must_use]
pub fn poisson_residual(u: &Dense, f: &Dense, h2: f64) -> f64 {
    let n = u.rows();
    let at = |i: isize, j: isize| -> f64 {
        if i < 0 || j < 0 || i >= n as isize || j >= n as isize {
            0.0
        } else {
            u.get(i as usize, j as usize)
        }
    };
    let mut worst = 0.0f64;
    for i in 0..n as isize {
        for j in 0..n as isize {
            let lap = 4.0 * at(i, j) - at(i - 1, j) - at(i + 1, j) - at(i, j - 1) - at(i, j + 1);
            let r = (lap / h2 - f.get(i as usize, j as usize)).abs();
            worst = worst.max(r);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn setup(n: usize, dim: u32) -> (Hypercube, MatrixLayout) {
        let grid = ProcGrid::square(Cube::new(dim));
        (Hypercube::new(dim, CostModel::cm2()), MatrixLayout::block(MatShape::new(n, n), grid))
    }

    fn point_source(n: usize) -> Dense {
        Dense::from_fn(n, n, |i, j| if i == n / 2 && j == n / 2 { 1.0 } else { 0.0 })
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let n = 12;
        let (mut hc, layout) = setup(n, 4);
        let fd = point_source(n);
        let f = DistMatrix::from_fn(layout, |i, j| fd.get(i, j));
        let h2 = 1.0 / ((n + 1) as f64 * (n + 1) as f64);
        let u_par = jacobi_poisson(&mut hc, &f, h2, 25);
        let u_ser = jacobi_poisson_serial(&fd, h2, 25);
        let dense = u_par.to_dense();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(dense[i][j], u_ser.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn relaxation_reduces_the_residual() {
        let n = 16;
        let fd = point_source(n);
        let h2 = 1.0;
        let early = jacobi_poisson_serial(&fd, h2, 5);
        let late = jacobi_poisson_serial(&fd, h2, 200);
        let r_early = poisson_residual(&early, &fd, h2);
        let r_late = poisson_residual(&late, &fd, h2);
        assert!(r_late < r_early / 5.0, "residual {r_early} -> {r_late}");
    }

    #[test]
    fn solution_is_symmetric_for_centered_source() {
        let n = 9; // odd: exact centre
        let (mut hc, layout) = setup(n, 2);
        let fd = point_source(n);
        let f = DistMatrix::from_fn(layout, |i, j| fd.get(i, j));
        let u = jacobi_poisson(&mut hc, &f, 1.0, 60);
        let d = u.to_dense();
        for i in 0..n {
            for j in 0..n {
                assert!((d[i][j] - d[j][i]).abs() < 1e-12, "transpose symmetry");
                assert!((d[i][j] - d[n - 1 - i][j]).abs() < 1e-12, "mirror symmetry");
            }
        }
        assert!(d[n / 2][n / 2] > 0.0, "positive response at the source");
    }

    #[test]
    fn machine_size_does_not_change_the_floats() {
        let n = 10;
        let fd = point_source(n);
        let mut fields = Vec::new();
        for dim in [0u32, 2, 4] {
            let (mut hc, layout) = setup(n, dim);
            let f = DistMatrix::from_fn(layout, |i, j| fd.get(i, j));
            fields.push(jacobi_poisson(&mut hc, &f, 0.5, 15).to_dense());
        }
        assert_eq!(fields[0], fields[1]);
        assert_eq!(fields[0], fields[2]);
    }

    #[test]
    fn block_layout_iteration_is_cheaper_than_cyclic() {
        // The stencil counterpart of T4's layout ablation, in reverse:
        // shifts love block layouts.
        let n = 32;
        let fd = point_source(n);
        let run = |cyclic: bool| {
            let grid = ProcGrid::square(Cube::new(6));
            let layout = if cyclic {
                MatrixLayout::cyclic(MatShape::new(n, n), grid)
            } else {
                MatrixLayout::block(MatShape::new(n, n), grid)
            };
            let f = DistMatrix::from_fn(layout, |i, j| fd.get(i, j));
            let mut hc = Hypercube::new(6, CostModel::cm2());
            let _ = jacobi_poisson(&mut hc, &f, 1.0, 3);
            hc.elapsed_us()
        };
        let block = run(false);
        let cyclic = run(true);
        assert!(block < cyclic, "block {block} vs cyclic {cyclic}");
    }
}
