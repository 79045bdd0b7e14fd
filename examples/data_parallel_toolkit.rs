//! The data-parallel toolkit around the primitives: scans, segmented
//! scans, stream compaction, histograms, and pointer jumping — the
//! Connection Machine idioms the paper's authors built their programming
//! model from, all running on the same simulated machine.
//!
//! ```text
//! cargo run --release --example data_parallel_toolkit
//! ```

use four_vmp::algos::histogram::{histogram_dense, histogram_sparse};
use four_vmp::algos::listrank::{list_rank, random_list};
use four_vmp::core::elem::Sum;
use four_vmp::core::scan::{pack, scan_inclusive, segmented_reduce};
use four_vmp::hypercube::Cube;
use four_vmp::prelude::*;

fn main() {
    let dim = 6u32;
    let grid = ProcGrid::square(Cube::new(dim));
    println!("machine: p = {} processors\n", 1usize << dim);

    // --- scans -------------------------------------------------------
    let n = 64usize;
    let layout = VectorLayout::linear(n, grid, Dist::Block);
    let v = DistVector::from_fn(layout, |i| (i + 1) as i64);
    let hc = &mut Hypercube::cm2(dim);
    let prefix = scan_inclusive(hc, &v, Sum);
    println!(
        "scan:      sum of 1..={n} via parallel prefix = {} ({:.1} us simulated)",
        prefix.get(n - 1),
        hc.elapsed_us()
    );

    // --- segmented reduce ---------------------------------------------
    let flags = DistVector::from_fn(layout, |i| i % 16 == 0);
    hc.reset();
    let seg = segmented_reduce(hc, &v, &flags, Sum);
    println!(
        "segmented: four 16-element segment sums = [{}, {}, {}, {}]",
        seg.get(0),
        seg.get(16),
        seg.get(32),
        seg.get(48)
    );

    // --- pack (stream compaction) --------------------------------------
    let mask = DistVector::from_fn(layout, |i| (i + 1) % 7 == 0);
    hc.reset();
    let multiples = pack(hc, &v, &mask);
    println!(
        "pack:      multiples of 7 in 1..={n}: {:?} ({} kept)",
        multiples.to_dense(),
        multiples.n()
    );

    // --- histogram ------------------------------------------------------
    let values: Vec<usize> = (0..256).map(|i| (i * i) % 16).collect();
    let hv = DistVector::from_slice(VectorLayout::linear(values.len(), grid, Dist::Block), &values);
    let mut hd = Hypercube::cm2(dim);
    let dense = histogram_dense(&mut hd, &hv, 16);
    let mut hs = Hypercube::cm2(dim);
    let sparse = histogram_sparse(&mut hs, &hv, 16);
    assert_eq!(dense, sparse);
    println!(
        "histogram: 256 values into 16 bins, dense {:.1} us vs sparse {:.1} us; mode bin = {}",
        hd.elapsed_us(),
        hs.elapsed_us(),
        dense.iter().enumerate().max_by_key(|&(_, c)| *c).map(|(b, _)| b).expect("nonempty")
    );

    // --- pointer jumping -------------------------------------------------
    let m = 128usize;
    let next = random_list(m, 42);
    let nv = DistVector::from_slice(VectorLayout::linear(m, grid, Dist::Block), &next);
    let mut hl = Hypercube::cm2(dim);
    let ranks = list_rank(&mut hl, &nv);
    let head = (0..m).find(|&i| ranks.get(i) == m - 1).expect("a head exists");
    println!(
        "listrank:  {m}-element random list ranked in lg(n) rounds; head = element {head} \
         ({:.1} us, {} supersteps)",
        hl.elapsed_us(),
        hl.counters().message_steps
    );
}
