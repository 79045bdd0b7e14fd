//! Embedding changes: the vector and matrix re-embeddings the primitives
//! "indicate", with their simulated costs and traffic.
//!
//! ```text
//! cargo run --release --example embedding_changes
//! ```

use four_vmp::core::remap;
use four_vmp::prelude::*;

fn main() {
    let dim = 8u32;
    let n = 256usize;
    let hc0 = Hypercube::cm2(dim);
    let grid = ProcGrid::square(hc0.cube());
    println!("p = {} ({}x{} grid), vector length {n}\n", hc0.p(), grid.pr(), grid.pc());
    println!("{:<48} {:>10} {:>6} {:>9}", "embedding change", "time", "steps", "elements");

    let show = |name: &str, hc: &Hypercube| {
        println!(
            "{name:<48} {:>8.1}us {:>6} {:>9}",
            hc.elapsed_us(),
            hc.counters().message_steps,
            hc.counters().elements_transferred
        );
    };

    // Start from a concentrated row vector (what extract returns).
    let conc = VectorLayout::aligned(n, grid, Axis::Row, Placement::Concentrated(5), Dist::Cyclic);
    let v = DistVector::from_fn(conc, |i| (i as f64).sqrt());

    let mut hc = Hypercube::cm2(dim);
    let vr = remap::replicate(&mut hc, &v);
    show("concentrated -> replicated (tree broadcast)", &hc);

    let mut hc = Hypercube::cm2(dim);
    let _ = remap::concentrate(&mut hc, &vr, 0);
    show("replicated -> concentrated (drop copies: free)", &hc);

    let mut hc = Hypercube::cm2(dim);
    let _ = remap::concentrate(&mut hc, &v, 12);
    show("concentrated line 5 -> line 12 (routed)", &hc);

    let mut hc = Hypercube::cm2(dim);
    let lin = remap::remap_vector(&mut hc, &vr, VectorLayout::linear(n, grid, Dist::Block));
    show("row-aligned -> linear (balanced)", &hc);
    assert_eq!(lin.to_dense(), v.to_dense(), "content preserved");

    let mut hc = Hypercube::cm2(dim);
    let flipped = remap::remap_vector(
        &mut hc,
        &vr,
        VectorLayout::aligned(n, grid, Axis::Col, Placement::Replicated, Dist::Cyclic),
    );
    show("row-aligned -> col-aligned (axis flip)", &hc);
    assert_eq!(flipped.to_dense(), v.to_dense());

    // Matrix-level changes.
    let a = DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| {
        (i * n + j) as f64
    });

    let mut hc = Hypercube::cm2(dim);
    let at = remap::transpose(&mut hc, &a);
    show("matrix transpose (dimension permutation)", &hc);
    assert_eq!(at.get(3, 7), a.get(7, 3));

    let mut hc = Hypercube::cm2(dim);
    let _ = remap::redistribute(&mut hc, &a, MatrixLayout::block(MatShape::new(n, n), grid));
    show("matrix cyclic -> block redistribution", &hc);

    println!("\nevery change is a blocked dimension-ordered route: at most d = {dim} supersteps.");
}
