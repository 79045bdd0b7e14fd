//! The paper's headline engineering result: the primitive-based
//! implementation beats the naive general-router implementation by
//! almost an order of magnitude. Same data, same results, different
//! communication structure.
//!
//! ```text
//! cargo run --release --example naive_vs_primitives [n] [cube_dim]
//! ```

use four_vmp::core::elem::Sum;
use four_vmp::core::{naive, primitives};
use four_vmp::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let dim: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let grid = ProcGrid::square(vmp_cube(dim));
    // Small integers sum exactly in any order, so the serial naive fold
    // and the butterfly-ordered blocked fold agree bit for bit.
    let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| {
        ((i * 31 + j * 17) % 101) as f64
    });
    println!("n = {n}, p = {}, m/p = {}\n", 1usize << dim, (n * n) >> dim);
    println!("{:<22} {:>12} {:>12} {:>9}", "primitive", "naive", "blocked", "speedup");

    // reduce
    let mut hn = Hypercube::cm2(dim);
    let vn = naive::naive_reduce(&mut hn, &a, Axis::Row, Sum);
    let mut ho = Hypercube::cm2(dim);
    let vo = primitives::reduce(&mut ho, &a, Axis::Row, Sum);
    assert_eq!(vn.to_dense(), vo.to_dense(), "identical results");
    report("reduce", &hn, &ho);

    // distribute (from a concentrated source: the hot-spot case)
    let mut hc = Hypercube::cm2(dim);
    let conc = primitives::extract(&mut hc, &a, Axis::Row, 0);
    let mut hn = Hypercube::cm2(dim);
    let mn = naive::naive_distribute(&mut hn, &conc, n, Dist::Cyclic);
    let mut ho = Hypercube::cm2(dim);
    let mo = primitives::distribute(&mut ho, &conc, n, Dist::Cyclic);
    assert_eq!(mn.to_dense(), mo.to_dense());
    report("distribute", &hn, &ho);

    // extract + replicate (the pivot-row fan-out)
    let mut hn = Hypercube::cm2(dim);
    let en = naive::naive_extract_replicated(&mut hn, &a, Axis::Row, n / 2);
    let mut ho = Hypercube::cm2(dim);
    let eo = primitives::extract_replicated(&mut ho, &a, Axis::Row, n / 2);
    assert_eq!(en.to_dense(), eo.to_dense());
    report("extract+replicate", &hn, &ho);

    // insert
    let mut m1 = a.clone();
    let mut hn = Hypercube::cm2(dim);
    naive::naive_insert(&mut hn, &mut m1, Axis::Row, 1, &eo);
    let mut m2 = a.clone();
    let mut ho = Hypercube::cm2(dim);
    primitives::insert(&mut ho, &mut m2, Axis::Row, 1, &eo);
    assert_eq!(m1.to_dense(), m2.to_dense());
    report("insert", &hn, &ho);

    println!("\nwhy: the naive version injects every element into the general router");
    println!("individually (one start-up each, hot-spot serialisation at the");
    println!("destinations); the primitives move blocked messages down balanced");
    println!("spanning trees — lg p start-ups total.");
}

fn report(name: &str, naive: &Hypercube, opt: &Hypercube) {
    let (tn, to) = (naive.elapsed_us(), opt.elapsed_us().max(1e-9));
    println!("{name:<22} {:>10.1}us {:>10.1}us {:>8.1}x", tn, to, tn / to);
}

fn vmp_cube(dim: u32) -> four_vmp::hypercube::Cube {
    four_vmp::hypercube::Cube::new(dim)
}
