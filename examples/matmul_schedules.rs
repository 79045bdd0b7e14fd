//! Distributed matrix multiply: the rank-1 (pure primitives) schedule vs
//! panel blocking, plus a two-phase simplex on a general-form LP — the
//! extension applications beyond the paper's three.
//!
//! ```text
//! cargo run --release --example matmul_schedules [n] [cube_dim]
//! ```

use four_vmp::algos::serial::{simplex::GeneralLp, Dense};
use four_vmp::algos::{matmul, matmul_panelled, solve_general_parallel, workloads};
use four_vmp::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let dim: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let da = workloads::random_matrix(n, n, 1);
    let db = workloads::random_matrix(n, n, 2);
    let make = || {
        let grid = ProcGrid::square(Cube::new(dim));
        (
            DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| {
                da.get(i, j)
            }),
            DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| {
                db.get(i, j)
            }),
        )
    };
    use four_vmp::hypercube::Cube;

    println!("C = A B, {n}x{n} on p = {} — schedule comparison:\n", 1usize << dim);
    println!("{:<28} {:>12} {:>12}", "schedule", "time", "msg steps");

    let (a, b) = make();
    let mut hc = Hypercube::cm2(dim);
    let c_rank1 = matmul(&mut hc, &a, &b);
    println!(
        "{:<28} {:>10.2}ms {:>12}",
        "rank-1 (pure primitives)",
        hc.elapsed_us() / 1e3,
        hc.counters().message_steps
    );

    for panel in [2usize, 4, 8, 16] {
        let (a, b) = make();
        let mut hc = Hypercube::cm2(dim);
        let c = matmul_panelled(&mut hc, &a, &b, panel);
        assert_eq!(c.to_dense(), c_rank1.to_dense(), "identical floats");
        println!(
            "{:<28} {:>10.2}ms {:>12}",
            format!("panelled (b = {panel})"),
            hc.elapsed_us() / 1e3,
            hc.counters().message_steps
        );
    }
    println!("\npanelling trades start-ups (k/b broadcasts instead of k) for wider messages.");

    // A general-form LP via the two-phase simplex.
    println!("\ntwo-phase simplex on a general-form LP (negative rhs => phase-1 artificials):");
    let g = GeneralLp::new(
        Dense::from_rows(&[vec![1.0, 1.0], vec![-1.0, -1.0], vec![1.0, 0.0]]),
        vec![8.0, -3.0, 5.0],
        vec![1.0, 1.0],
    );
    let mut hc = Hypercube::cm2(dim.min(6));
    let r = solve_general_parallel(&mut hc, &g, ProcGrid::square(Cube::new(dim.min(6))), 500);
    println!(
        "  max x+y s.t. x+y<=8, x+y>=3, x<=5  ->  {:?}, z* = {:.3}, x = {:?}, {} pivots",
        r.status, r.objective, r.x, r.iterations
    );
}
