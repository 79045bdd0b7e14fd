//! Cross-crate integration tests: full pipelines from workload
//! generation through the primitives to verified results.

use four_vmp::algos::serial::{self, simplex_solve, SimplexStatus};
use four_vmp::algos::{gauss, simplex, vecmat, workloads};
use four_vmp::core::elem::{Max, Sum};
use four_vmp::core::{naive, primitives};
use four_vmp::prelude::*;

fn machine(dim: u32) -> Hypercube {
    Hypercube::cm2(dim)
}

fn grid(dim: u32) -> ProcGrid {
    ProcGrid::square(Cube::new(dim))
}

use four_vmp::hypercube::Cube;

#[test]
fn full_linear_solve_pipeline() {
    // Generate -> distribute -> eliminate -> back-substitute -> verify
    // against both the ground truth and the serial oracle.
    for dim in [0u32, 3, 5] {
        let n = 24;
        let (a, b, x_true) = workloads::diag_dominant_system(n, 2024);
        let mut hc = machine(dim);
        let (x, _) = gauss::ge_solve(&mut hc, &a, &b, grid(dim)).expect("nonsingular");
        let serial_x = serial::lu_solve(&a, &b).expect("nonsingular");
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "truth, dim {dim}");
            assert!((x[i] - serial_x[i]).abs() < 1e-8, "oracle, dim {dim}");
        }
        assert!(hc.elapsed_us() > 0.0, "work was charged");
    }
}

#[test]
fn full_lp_pipeline_bit_matches_serial() {
    for seed in [1u64, 2, 3] {
        let lp = workloads::random_dense_lp(10, 8, seed);
        let mut hc = machine(4);
        let par = simplex::solve_parallel(&mut hc, &lp, grid(4), 1000);
        let ser = simplex_solve(&lp, 1000);
        assert_eq!(par.status, SimplexStatus::Optimal);
        assert_eq!(par.objective, ser.objective, "seed {seed}");
        assert_eq!(par.x, ser.x, "seed {seed}");
        assert!(lp.is_feasible(&par.x, 1e-7));
    }
}

#[test]
fn matvec_pipeline_with_embedding_changes() {
    // A vector arriving in the "wrong" (linear) embedding flows through
    // an automatic remap into the multiply.
    let n = 40;
    let d = workloads::random_matrix(n, n, 9);
    let xh = workloads::random_vector(n, 10);
    let g = grid(4);
    let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), g), |i, j| d.get(i, j));
    let x = DistVector::from_slice(VectorLayout::linear(n, g, Dist::Block), &xh);
    let mut hc = machine(4);
    let y = vecmat(&mut hc, &x, &a);
    let expect = d.vecmat(&xh);
    for (u, v) in y.to_dense().iter().zip(&expect) {
        assert!((u - v).abs() < 1e-10);
    }
}

#[test]
fn primitives_compose_into_power_iteration() {
    // A fourth application, composed only from the public API: a few
    // steps of power iteration y <- normalise(A y) on a symmetric
    // positive matrix.
    let n = 16;
    let g = grid(4);
    let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), g), |i, j| {
        1.0 / ((i + j + 1) as f64) + if i == j { 2.0 } else { 0.0 }
    });
    let mut hc = machine(4);
    let mut y = DistVector::constant(
        VectorLayout::aligned(n, g, Axis::Row, Placement::Replicated, Dist::Cyclic),
        1.0f64,
    );
    let mut lambda = 0.0;
    for _ in 0..30 {
        let ay = four_vmp::algos::matvec(&mut hc, &a, &y); // col-aligned
        lambda = ay.reduce_all(&mut hc, Max);
        // Normalise and re-orient for the next multiply.
        let normalised = ay.map(&mut hc, |_, v| v / lambda);
        y = four_vmp::core::remap::remap_vector(&mut hc, &normalised, *y.layout());
    }
    // Rayleigh-quotient check: A y ~= lambda y.
    let ay = four_vmp::algos::matvec(&mut hc, &a, &y);
    let yd = y.to_dense();
    let ayd = ay.to_dense();
    for i in 0..n {
        assert!((ayd[i] - lambda * yd[i]).abs() < 1e-6 * lambda, "eigenpair residual at {i}");
    }
    assert!(lambda > 2.0, "dominant eigenvalue exceeds the diagonal shift");
}

#[test]
fn naive_and_primitive_implementations_agree_end_to_end() {
    let n = 20;
    let g = grid(4);
    let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), g), |i, j| {
        ((i * 7 + j * 11) % 13) as f64
    });
    let mut h1 = machine(4);
    let mut h2 = machine(4);
    let r1 = naive::naive_reduce(&mut h1, &a, Axis::Col, Sum);
    let r2 = primitives::reduce(&mut h2, &a, Axis::Col, Sum);
    assert_eq!(r1.to_dense(), r2.to_dense());
    assert!(h1.elapsed_us() > h2.elapsed_us(), "and the naive one is slower");
}

#[test]
fn counters_tell_a_consistent_story() {
    // Cross-checks between the clock and the counters: zero counters
    // imply zero time; message steps imply alpha charges.
    let n = 32;
    let g = grid(6);
    let a =
        DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), g), |i, j| (i + j) as f64);
    let mut hc = machine(6);
    let _ = primitives::extract(&mut hc, &a, Axis::Row, 3);
    assert_eq!(hc.counters().message_steps, 0, "extract is local");
    assert!(hc.counters().local_moves > 0);

    let cost = *hc.cost();
    hc.reset();
    let t0 = hc.elapsed_us();
    let _ = primitives::reduce(&mut hc, &a, Axis::Row, Sum);
    let dt = hc.elapsed_us() - t0;
    let steps = hc.counters().message_steps;
    assert!(dt >= cost.alpha * steps as f64, "every superstep pays at least alpha");
}
