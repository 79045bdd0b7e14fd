//! Conjugate gradient on the primitives — an extension application.
//!
//! The booklet surrounding the paper (the finite-element reports of
//! Johnsson & Mathur) solves its sparse systems with conjugate gradient
//! on the same machine; here CG over a dense SPD operator demonstrates
//! that the primitive vocabulary supports *iterative* solvers too: each
//! iteration is one `matvec` (elementwise + reduce), two dot products
//! (zip + reduce-to-scalar), three vector updates (zip), and one
//! embedding change (the matvec output is column-aligned, the iteration
//! vectors are row-aligned — an axis flip per step, priced like any
//! other remap).

use vmp_core::elem::Numeric;
use vmp_core::prelude::*;
use vmp_core::remap;
use vmp_hypercube::machine::Hypercube;

use crate::matvec::matvec;
use crate::serial::Dense;

/// Options for [`cg_solve`].
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Stop when the residual 2-norm falls below this.
    pub tol: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions { tol: 1e-10, max_iterations: 1000 }
    }
}

/// Result of a CG run.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The solution estimate.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual_norm: f64,
    /// Whether `tol` was reached.
    pub converged: bool,
}

/// Dot product of two identically laid-out vectors (replicated scalar).
fn dot<T: Numeric>(hc: &mut Hypercube, u: &DistVector<T>, v: &DistVector<T>) -> T {
    u.dot(hc, v)
}

/// Solve `A x = b` for symmetric positive-definite `A` by conjugate
/// gradient, entirely on the machine.
///
/// `a` must be square; `b` is given host-side (loaded once). Returns the
/// solution host-side, like [`crate::gauss::ge_solve`].
pub fn cg_solve(hc: &mut Hypercube, a: &DistMatrix<f64>, b: &[f64], opts: CgOptions) -> CgOutcome {
    let n = a.shape().rows;
    assert_eq!(a.shape().cols, n, "CG requires a square (SPD) matrix");
    assert_eq!(b.len(), n, "rhs length");
    let grid = a.layout().grid();
    let row_layout =
        VectorLayout::aligned(n, grid, Axis::Row, Placement::Replicated, a.layout().cols().kind());

    let bv = DistVector::from_slice(row_layout, b);
    let mut x = DistVector::constant(row_layout, 0.0f64);
    let mut r = bv.clone(); // r = b - A*0
    let mut p = r.clone();
    let mut rs_old = dot(hc, &r, &r);

    if rs_old.sqrt() <= opts.tol {
        return CgOutcome {
            x: x.to_dense(),
            iterations: 0,
            residual_norm: rs_old.sqrt(),
            converged: true,
        };
    }

    for iter in 1..=opts.max_iterations {
        // Ap: matvec produces a column-aligned vector; flip it back to
        // the iteration vectors' embedding (charged remap).
        let ap_col = matvec(hc, a, &p);
        let ap = remap::remap_vector(hc, &ap_col, row_layout);

        let p_ap = dot(hc, &p, &ap);
        let alpha = rs_old / p_ap;
        x = x.zip(hc, &p, move |_, xi, pi| xi + alpha * pi);
        r = r.zip(hc, &ap, move |_, ri, api| ri - alpha * api);

        let rs_new = dot(hc, &r, &r);
        if rs_new.sqrt() <= opts.tol {
            return CgOutcome {
                x: x.to_dense(),
                iterations: iter,
                residual_norm: rs_new.sqrt(),
                converged: true,
            };
        }
        let beta = rs_new / rs_old;
        p = r.zip(hc, &p, move |_, ri, pi| ri + beta * pi);
        rs_old = rs_new;
    }

    CgOutcome {
        x: x.to_dense(),
        iterations: opts.max_iterations,
        residual_norm: rs_old.sqrt(),
        converged: false,
    }
}

/// Serial CG oracle on a dense host matrix, same formulae.
#[must_use]
pub fn cg_solve_serial(a: &Dense, b: &[f64], opts: CgOptions) -> CgOutcome {
    let n = a.rows();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let sdot = |u: &[f64], v: &[f64]| u.iter().zip(v).map(|(a, b)| a * b).sum::<f64>();
    let mut rs_old = sdot(&r, &r);
    if rs_old.sqrt() <= opts.tol {
        return CgOutcome { x, iterations: 0, residual_norm: rs_old.sqrt(), converged: true };
    }
    for iter in 1..=opts.max_iterations {
        let ap = a.matvec(&p);
        let alpha = rs_old / sdot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new = sdot(&r, &r);
        if rs_new.sqrt() <= opts.tol {
            return CgOutcome {
                x,
                iterations: iter,
                residual_norm: rs_new.sqrt(),
                converged: true,
            };
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    CgOutcome { x, iterations: opts.max_iterations, residual_norm: rs_old.sqrt(), converged: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn dist(d: &Dense, dim: u32) -> (Hypercube, DistMatrix<f64>) {
        let grid = ProcGrid::square(Cube::new(dim));
        let m = DistMatrix::from_fn(
            MatrixLayout::cyclic(MatShape::new(d.rows(), d.cols()), grid),
            |i, j| d.get(i, j),
        );
        (Hypercube::new(dim, CostModel::cm2()), m)
    }

    #[test]
    fn solves_spd_systems_to_truth() {
        for (n, dim) in [(8usize, 2u32), (16, 4), (24, 4)] {
            let (a, b, x_true) = workloads::spd_system(n, n as u64 + 1);
            let (mut hc, am) = dist(&a, dim);
            let out = cg_solve(&mut hc, &am, &b, CgOptions::default());
            assert!(out.converged, "n = {n}: residual {}", out.residual_norm);
            assert!(
                out.iterations <= n + 2,
                "CG converges in <= n steps exactly, {} taken",
                out.iterations
            );
            for (xs, xt) in out.x.iter().zip(&x_true) {
                assert!((xs - xt).abs() < 1e-6, "n = {n}");
            }
            assert!(hc.elapsed_us() > 0.0);
        }
    }

    #[test]
    fn parallel_iteration_count_matches_serial() {
        let (a, b, _) = workloads::spd_system(20, 9);
        let serial = cg_solve_serial(&a, &b, CgOptions::default());
        let (mut hc, am) = dist(&a, 4);
        let par = cg_solve(&mut hc, &am, &b, CgOptions::default());
        assert!(par.converged && serial.converged);
        // Dot products are tree-summed in parallel, so allow +-1 step.
        assert!(
            par.iterations.abs_diff(serial.iterations) <= 1,
            "parallel {} vs serial {}",
            par.iterations,
            serial.iterations
        );
        for (xs, xt) in par.x.iter().zip(&serial.x) {
            assert!((xs - xt).abs() < 1e-7);
        }
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let (a, _, _) = workloads::spd_system(8, 3);
        let (mut hc, am) = dist(&a, 2);
        let out = cg_solve(&mut hc, &am, &[0.0; 8], CgOptions::default());
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_cap_reports_nonconvergence() {
        let (a, b, _) = workloads::spd_system(24, 4);
        let (mut hc, am) = dist(&a, 2);
        let out = cg_solve(&mut hc, &am, &b, CgOptions { tol: 1e-14, max_iterations: 2 });
        assert!(!out.converged);
        assert_eq!(out.iterations, 2);
        assert!(out.residual_norm > 0.0);
    }
}
