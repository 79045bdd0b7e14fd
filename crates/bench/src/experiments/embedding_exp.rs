//! T5 — the cost of embedding changes.

use vmp_core::prelude::*;
use vmp_core::{primitives, remap};

use crate::common::{cm2, hash_entry, random_dist_matrix, square_grid};
use crate::table::{fmt_us, Table};

/// T5: vector and matrix embedding changes on `p = 1024`.
#[must_use]
pub fn t5() -> Table {
    let dim = 10u32;
    let n = 1024usize;
    let grid = square_grid(dim);
    let mut t = Table::new(
        "T5",
        "embedding-change costs (n = 1024 vectors, 512x512 matrix, p = 1024)",
        "\"The primitives may indicate a change from one embedding to another\"",
        &["operation", "time", "msg steps", "elements moved"],
    );

    let mut add = |name: &str, hc: &vmp_hypercube::Hypercube| {
        t.row(vec![
            name.to_string(),
            fmt_us(hc.elapsed_us()),
            hc.counters().message_steps.to_string(),
            hc.counters().elements_transferred.to_string(),
        ]);
    };

    // Concentrated -> replicated (tree broadcast).
    let conc = VectorLayout::aligned(n, grid, Axis::Row, Placement::Concentrated(3), Dist::Cyclic);
    let v = DistVector::from_fn(conc, |i| hash_entry(i, 0));
    let mut hc = cm2(dim);
    let vr = remap::replicate(&mut hc, &v);
    add("replicate (concentrated -> replicated)", &hc);

    // Replicated -> concentrated (free).
    let mut hc = cm2(dim);
    let _ = remap::concentrate(&mut hc, &vr, 0);
    add("concentrate (replicated -> line 0, drop copies)", &hc);

    // Concentrated line A -> line B (routed move).
    let mut hc = cm2(dim);
    let _ = remap::concentrate(&mut hc, &v, 17);
    add("concentrate (line 3 -> line 17, routed)", &hc);

    // Aligned -> linear (balanced).
    let mut hc = cm2(dim);
    let lin = remap::remap_vector(&mut hc, &vr, VectorLayout::linear(n, grid, Dist::Block));
    add("aligned replicated -> linear", &hc);

    // Linear -> aligned replicated.
    let mut hc = cm2(dim);
    let _ = remap::remap_vector(
        &mut hc,
        &lin,
        VectorLayout::aligned(n, grid, Axis::Row, Placement::Replicated, Dist::Cyclic),
    );
    add("linear -> aligned replicated", &hc);

    // Axis flip: row-aligned -> col-aligned.
    let mut hc = cm2(dim);
    let _ = remap::remap_vector(
        &mut hc,
        &vr,
        VectorLayout::aligned(n, grid, Axis::Col, Placement::Replicated, Dist::Cyclic),
    );
    add("row-aligned -> col-aligned (axis flip)", &hc);

    // Matrix transpose and redistribution.
    let m = random_dist_matrix(512, grid);
    let mut hc = cm2(dim);
    let _ = remap::transpose(&mut hc, &m);
    add("matrix transpose (512x512)", &hc);

    let mut hc = cm2(dim);
    let block = MatrixLayout::block(MatShape::new(512, 512), grid);
    let _ = remap::redistribute(&mut hc, &m, block);
    add("matrix cyclic -> block redistribution (512x512)", &hc);

    // For scale: an extract that *induces* the embedding change.
    let mut hc = cm2(dim);
    let _ = primitives::extract_replicated(&mut hc, &m, Axis::Row, 100);
    add("extract + replicate (the induced change, 512 cols)", &hc);

    t.note(
        "replicated->concentrated is free (copies dropped); routed moves pay d blocked supersteps",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t5_builds_and_orders_sensibly() {
        // Tiny replica at dim 4 to keep CI fast: replicate must cost
        // more than concentrate-to-line-0 (free), transpose more than
        // a vector remap.
        let dim = 4u32;
        let grid = square_grid(dim);
        let conc =
            VectorLayout::aligned(64, grid, Axis::Row, Placement::Concentrated(1), Dist::Cyclic);
        let v = DistVector::from_fn(conc, |i| i as f64);
        let mut hc1 = cm2(dim);
        let vr = remap::replicate(&mut hc1, &v);
        let mut hc2 = cm2(dim);
        let _ = remap::concentrate(&mut hc2, &vr, 0);
        assert!(hc1.elapsed_us() > 0.0);
        assert_eq!(hc2.elapsed_us(), 0.0, "dropping replicas is free");

        let m = random_dist_matrix(32, grid);
        let mut hc3 = cm2(dim);
        let _ = remap::transpose(&mut hc3, &m);
        let mut hc4 = cm2(dim);
        let _ = remap::remap_vector(&mut hc4, &vr, VectorLayout::linear(64, grid, Dist::Block));
        assert!(hc3.elapsed_us() > hc4.elapsed_us(), "matrix moves dwarf vector moves");
    }
}
