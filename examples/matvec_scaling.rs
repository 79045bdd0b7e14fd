//! Machine-size independence and scaling of the vector-matrix multiply:
//! the same program runs unchanged from p = 1 to p = 4096, and the
//! simulated time follows `O(m/p + lg p)`.
//!
//! ```text
//! cargo run --release --example matvec_scaling [n]
//! ```

use four_vmp::algos::workloads;
use four_vmp::core::analysis;
use four_vmp::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(512);
    let d = workloads::random_matrix(n, n, 3);
    let xh = workloads::random_vector(n, 4);
    let serial_y = d.vecmat(&xh);
    let cost = CostModel::cm2();
    let serial_us = cost.gamma * 2.0 * (n * n) as f64;

    println!(
        "y = x A with n = {n} (m = {} elements), the SAME program on every machine size:\n",
        n * n
    );
    println!("   p     m/p   m>p*lgp   simulated      speedup   efficiency   max|err|");
    for dim in [0u32, 2, 4, 6, 8, 10, 12] {
        let p = 1usize << dim;
        let hc = &mut Hypercube::cm2(dim);
        let grid = ProcGrid::square(hc.cube());
        let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| {
            d.get(i, j)
        });
        let x = DistVector::from_fn(
            VectorLayout::aligned(
                n,
                a.layout().grid(),
                Axis::Col,
                Placement::Replicated,
                Dist::Cyclic,
            ),
            |i| xh[i],
        );
        let y = vecmat(hc, &x, &a);
        let t = hc.elapsed_us();
        let err =
            y.to_dense().iter().zip(&serial_y).map(|(u, v)| (u - v).abs()).fold(0.0, f64::max);
        println!(
            "{:>5}  {:>6}   {:>7}   {:>9.1} us   {:>7.2}x   {:>9.3}   {err:.1e}",
            p,
            n * n / p,
            if analysis::in_optimal_regime(n * n, p) { "yes" } else { "no" },
            t,
            serial_us / t,
            analysis::efficiency(serial_us, p, t),
        );
    }
    println!("\nthe crossover where adding processors stops paying sits where m/p");
    println!("meets the lg p start-up term — the paper's m > p lg p regime.");
}
