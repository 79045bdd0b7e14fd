//! Quickstart: the four primitives on a simulated 1024-processor
//! Connection-Machine-style hypercube.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use four_vmp::prelude::*;

fn main() {
    // A 2^10 = 1024-processor machine with CM-2-like cost constants,
    // configured as a 32x32 processor grid.
    let hc = &mut Hypercube::cm2(10);
    let grid = ProcGrid::square(hc.cube());
    println!(
        "machine: p = {} processors ({}-cube), grid {}x{}",
        hc.p(),
        hc.dim(),
        grid.pr(),
        grid.pc()
    );

    // A 512x512 matrix, cyclically embedded (load-balanced: every node
    // holds a 16x16 block).
    let n = 512usize;
    let a = DistMatrix::from_fn(
        MatrixLayout::cyclic(MatShape::new(n, n), grid),
        |i, j| 1.0 / ((i + j + 1) as f64), // a Hilbert-ish test matrix
    );
    println!("matrix: {n}x{n} = {} elements, m/p = {}", n * n, n * n / hc.p());

    // 1. reduce: combine all rows into one row vector (column sums).
    hc.reset();
    let col_sums = reduce(hc, &a, Axis::Row, Sum);
    println!(
        "\nreduce(Row, +):        {:>9.1} us   col_sums[0] = {:.4}",
        hc.elapsed_us(),
        col_sums.get(0)
    );

    // 2. distribute: stack that vector back into a full matrix.
    hc.reset();
    let stacked = distribute(hc, &col_sums, n, Dist::Cyclic);
    println!(
        "distribute (x{n}):      {:>9.1} us   stacked[7][0] = {:.4}",
        hc.elapsed_us(),
        stacked.get(7, 0)
    );

    // 3. extract: pull out row 100. The result is *concentrated* on the
    //    grid row that owns matrix row 100 — the embedding the data
    //    placement dictates.
    hc.reset();
    let row100 = extract(hc, &a, Axis::Row, 100);
    println!("extract(Row, 100):     {:>9.1} us   (concentrated embedding)", hc.elapsed_us());

    // An explicit embedding change: replicate it across the grid.
    hc.reset();
    let row100_rep = replicate(hc, &row100);
    println!("replicate:             {:>9.1} us   (embedding change)", hc.elapsed_us());

    // 4. insert: overwrite row 0 with it — local, since it's replicated.
    let mut b = a.clone();
    hc.reset();
    insert(hc, &mut b, Axis::Row, 0, &row100_rep);
    println!(
        "insert(Row, 0):        {:>9.1} us   b[0][3] == a[100][3]: {}",
        hc.elapsed_us(),
        b.get(0, 3) == a.get(100, 3)
    );

    // Compose: y = x A in two primitive operations.
    let x = DistVector::from_fn(
        VectorLayout::aligned(n, a.layout().grid(), Axis::Col, Placement::Replicated, Dist::Cyclic),
        |i| (i % 7) as f64,
    );
    hc.reset();
    let y = vecmat(hc, &x, &a);
    println!("\nvecmat (y = xA):       {:>9.1} us   y[0] = {:.4}", hc.elapsed_us(), y.get(0));
    println!(
        "counters: {} message supersteps, {} elements transferred, {} flops",
        hc.counters().message_steps,
        hc.counters().elements_transferred,
        hc.counters().flops
    );
}
