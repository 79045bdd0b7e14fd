//! Edge cases and failure injection across the public API: degenerate
//! shapes, single-processor machines, singular/infeasible inputs, and
//! misuse that must panic loudly rather than corrupt.

use four_vmp::algos::serial::{simplex::GeneralLp, Dense, SimplexStatus};
use four_vmp::algos::{gauss, simplex, vecmat};
use four_vmp::core::elem::{Max, Min, Sum};
use four_vmp::core::{primitives, remap};
use four_vmp::hypercube::Cube;
use four_vmp::prelude::*;

fn machine(dim: u32) -> Hypercube {
    Hypercube::cm2(dim)
}

fn grid(dim: u32) -> ProcGrid {
    ProcGrid::square(Cube::new(dim))
}

#[test]
fn one_by_one_matrix_supports_every_primitive() {
    let mut hc = machine(4);
    let layout = MatrixLayout::cyclic(MatShape::new(1, 1), grid(4));
    let m = DistMatrix::from_fn(layout, |_, _| 42.0f64);
    let r = primitives::reduce(&mut hc, &m, Axis::Row, Sum);
    assert_eq!(r.to_dense(), vec![42.0]);
    let e = primitives::extract(&mut hc, &m, Axis::Col, 0);
    assert_eq!(e.to_dense(), vec![42.0]);
    let er = primitives::extract_replicated(&mut hc, &m, Axis::Row, 0);
    let d = primitives::distribute(&mut hc, &er, 1, Dist::Cyclic);
    assert_eq!(d.to_dense(), vec![vec![42.0]]);
    let mut m2 = m.clone();
    primitives::insert(&mut hc, &mut m2, Axis::Row, 0, &er);
    assert_eq!(m2.to_dense(), m.to_dense());
    let t = remap::transpose(&mut hc, &m);
    assert_eq!(t.to_dense(), vec![vec![42.0]]);
}

#[test]
fn single_row_and_single_column_matrices() {
    let mut hc = machine(4);
    let row =
        DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(1, 9), grid(4)), |_, j| j as i64);
    let col_sum = primitives::reduce(&mut hc, &row, Axis::Row, Sum);
    assert_eq!(col_sum.to_dense(), (0..9).collect::<Vec<i64>>());
    let row_min = primitives::reduce(&mut hc, &row, Axis::Col, Min);
    assert_eq!(row_min.to_dense(), vec![0]);

    let col =
        DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(9, 1), grid(4)), |i, _| i as i64);
    let m = primitives::reduce(&mut hc, &col, Axis::Row, Max);
    assert_eq!(m.to_dense(), vec![8]);
}

#[test]
fn single_processor_machine_runs_the_whole_stack() {
    // p = 1: every collective degenerates to a no-op; everything must
    // still be correct.
    let mut hc = machine(0);
    let g = grid(0);
    let a = four_vmp::algos::workloads::random_matrix(10, 10, 1);
    let b = four_vmp::algos::workloads::random_vector(10, 2);
    let (x, _) = gauss::ge_solve(&mut hc, &a, &b, g).expect("nonsingular");
    let serial = four_vmp::algos::serial::lu_solve(&a, &b).expect("nonsingular");
    for (u, v) in x.iter().zip(&serial) {
        assert!((u - v).abs() < 1e-9);
    }
    let lp = four_vmp::algos::workloads::random_dense_lp(5, 5, 3);
    let r = simplex::solve_parallel(&mut hc, &lp, g, 500);
    assert_eq!(r.status, SimplexStatus::Optimal);
    assert_eq!(hc.counters().elements_transferred, 0, "p = 1 moves nothing");
}

#[test]
fn empty_and_tiny_vectors() {
    let mut hc = machine(3);
    let empty = DistVector::<f64>::from_fn(
        VectorLayout::linear(0, grid(3), Dist::Block),
        |_| unreachable!(),
    );
    assert_eq!(empty.reduce_all(&mut hc, Sum), 0.0);
    assert_eq!(empty.to_dense(), Vec::<f64>::new());

    let one = DistVector::from_slice(VectorLayout::linear(1, grid(3), Dist::Block), &[7i64]);
    assert_eq!(one.reduce_all(&mut hc, Max), 7);
    let rev = four_vmp::core::scan::reverse(&mut hc, &one);
    assert_eq!(rev.to_dense(), vec![7]);
}

#[test]
fn vecmat_on_degenerate_shapes() {
    let mut hc = machine(4);
    // 1 x n and n x 1 multiplies.
    let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(1, 6), grid(4)), |_, j| {
        (j + 1) as f64
    });
    let x = DistVector::from_slice(
        VectorLayout::aligned(1, grid(4), Axis::Col, Placement::Replicated, Dist::Cyclic),
        &[2.0],
    );
    let y = vecmat(&mut hc, &x, &a);
    assert_eq!(y.to_dense(), vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
}

#[test]
fn singular_and_infeasible_inputs_report_errors_not_garbage() {
    let mut hc = machine(2);
    // Singular: rank-1 matrix.
    let a = Dense::from_fn(4, 4, |i, j| ((i + 1) * (j + 1)) as f64);
    assert_eq!(
        gauss::ge_solve(&mut hc, &a, &[1.0; 4], grid(2)).unwrap_err(),
        gauss::GeError::Singular
    );
    // Infeasible LP.
    let lp = GeneralLp::new(Dense::from_rows(&[vec![1.0], vec![-1.0]]), vec![0.5, -2.0], vec![1.0]);
    let r = simplex::solve_general_parallel(&mut hc, &lp, grid(2), 100);
    assert_eq!(r.status, SimplexStatus::Infeasible);
}

#[test]
fn zero_iteration_caps_terminate_immediately() {
    let mut hc = machine(2);
    let lp = four_vmp::algos::workloads::random_dense_lp(4, 4, 1);
    let r = simplex::solve_parallel(&mut hc, &lp, grid(2), 0);
    assert_eq!(r.status, SimplexStatus::MaxIterations);
    assert_eq!(r.iterations, 0);
}

#[test]
fn more_processors_than_elements() {
    // p = 64 for a 3x3 matrix: most nodes own nothing; everything still
    // works and the empties carry no data.
    let mut hc = machine(6);
    let layout = MatrixLayout::cyclic(MatShape::new(3, 3), grid(6));
    let m = DistMatrix::from_fn(layout, |i, j| (i * 3 + j) as i64);
    m.assert_consistent();
    let s = primitives::reduce(&mut hc, &m, Axis::Row, Sum);
    assert_eq!(s.to_dense(), vec![9, 12, 15]);
    let t = remap::transpose(&mut hc, &m);
    assert_eq!(t.get(2, 0), 2);
    let (x, _) = gauss::ge_solve(
        &mut hc,
        &Dense::from_rows(&[vec![2.0, 0.0], vec![0.0, 4.0]]),
        &[2.0, 8.0],
        grid(6),
    )
    .expect("diagonal");
    assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
}

#[test]
fn extreme_grid_aspect_ratios() {
    // All-rows and all-columns grids must behave like the square one.
    let mut results = Vec::new();
    for dr in [0u32, 2, 4] {
        let g = ProcGrid::new(Cube::new(4), dr);
        let layout = MatrixLayout::cyclic(MatShape::new(8, 8), g);
        let m = DistMatrix::from_fn(layout, |i, j| ((i * 13 + j) % 7) as i64);
        let mut hc = machine(4);
        results.push(primitives::reduce(&mut hc, &m, Axis::Row, Sum).to_dense());
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}

#[test]
#[should_panic(expected = "out of range")]
fn extract_past_the_end_panics() {
    let mut hc = machine(2);
    let m = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(3, 3), grid(2)), |_, _| 0.0f64);
    let _ = primitives::extract(&mut hc, &m, Axis::Col, 3);
}

#[test]
#[should_panic(expected = "share a layout")]
fn zipping_mismatched_layouts_panics() {
    let mut hc = machine(2);
    let a = DistVector::from_fn(VectorLayout::linear(8, grid(2), Dist::Block), |i| i as i64);
    let b = DistVector::from_fn(VectorLayout::linear(8, grid(2), Dist::Cyclic), |i| i as i64);
    let _ = a.zip(&mut hc, &b, |_, x, y| x + y);
}
