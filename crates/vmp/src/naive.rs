//! Naive implementations of the four primitives — the paper's baseline.
//!
//! The abstract's engineering headline: the primitive-based
//! implementation *"improved the running time of some of our applications
//! by almost an order of magnitude over a naive implementation."* The
//! naive implementation is the one every first CM program wrote: give
//! each element to a virtual processor and move data with the **general
//! router, one element per message**. Semantically these functions are
//! identical to [`crate::primitives`] (tests assert bit-equality); the
//! difference is purely *how* the data moves:
//!
//! | | optimized | naive |
//! |---|---|---|
//! | start-ups | `O(lg p)` blocked messages | one router injection **per element** |
//! | combining | tree/butterfly, `lg p` depth | serial fold at the destination |
//! | hot spots | none (balanced trees) | everyone hits the owning line's nodes |
//!
//! Bench T3/F3 measure the resulting gap under the CM-2 cost preset.

use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::router::route_elements;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{Axis, Dist, Placement, VecEmbedding, VectorLayout};

use crate::elem::{ReduceOp, Scalar};
use crate::matrix::DistMatrix;
use crate::primitives::{check_insert, local_fold, stack};
use crate::vector::DistVector;

/// Naive `reduce`: every node routes each element of its local partial
/// vector **individually** to the primary holder of the result chunk,
/// which folds arrivals serially. Result embedding matches
/// [`crate::primitives::reduce`] (replicated), with the replication also
/// done element-by-element through the router.
pub fn naive_reduce<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    op: O,
) -> DistVector<T> {
    let layout = m.layout();
    let grid = layout.grid();
    let p = grid.p();
    let n = layout.shape().vector_len(axis);
    let result_layout = VectorLayout::aligned(
        n,
        grid,
        axis,
        Placement::Replicated,
        layout.vector_dist(axis).kind(),
    );
    // Is `node` on primary line 0, and which result part does it hold?
    let primary_part = |node: usize| {
        let (line, part) = grid.line_and_part(axis, node);
        (line == 0, part)
    };

    // The local fold is the optimized one: the obvious code is local here.
    let partials = local_fold(hc, m, axis, op, |_| |_, _, x| x);

    // Route every partial element individually to the primary holder of
    // its result index (grid line 0 of the orthogonal direction).
    let dist = result_layout.dist();
    let mut moves = Vec::new();
    let mut folds = vec![0usize; p];
    for node in 0..p {
        let (is_primary, part) = primary_part(node);
        if is_primary {
            continue; // already home; folds locally below
        }
        for slot in 0..partials.len_of(node) {
            let dst = result_layout.primary_holder(dist.global_index(part, slot));
            folds[dst] += 1;
            moves.push((node, dst));
        }
    }
    route_elements(hc, moves);

    // Serial fold at each primary node: its own partial, then the
    // arrivals in ascending source order.
    let result = NodeSlab::build(dist.parts(), n, |part, out| {
        let start = out.len();
        out.extend_from_slice(&partials[result_layout.primary_node(part)]);
        for node in (0..p).filter(|&node| primary_part(node) == (false, part)) {
            for (acc, &x) in out[start..].iter_mut().zip(&partials[node]) {
                *acc = op.combine(*acc, x);
            }
        }
    });
    hc.charge_flops(folds.into_iter().max().unwrap_or(0));

    // Replicate element-by-element through the router, too.
    let result = DistVector::from_chunks(result_layout, result);
    naive_fan_out(hc, &result, 0);
    result
}

/// Naive `distribute`: every node fetches each element of its chunk
/// individually from the vector's holders (hot spot on a concentrated
/// source), then replicates locally.
pub fn naive_distribute<T: Scalar>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    count: usize,
    stack_kind: Dist,
) -> DistMatrix<T> {
    let (axis, placement) = match v.layout().embedding() {
        VecEmbedding::Aligned { axis, placement } => (*axis, *placement),
        VecEmbedding::Linear => panic!("distribute requires an axis-aligned vector"),
    };

    // Everyone needs a copy of its chunk; a naive program pulls each
    // element individually from the (single) holder.
    if let Placement::Concentrated(line) = placement {
        naive_fan_out(hc, v, line);
    }

    // The local replication is the optimized one.
    stack(hc, v, axis, count, stack_kind)
}

/// Naive `extract` + replication: the owning grid line's nodes send each
/// element of the row individually to every other grid line — the "pivot
/// row fan-out" hot spot that motivated the blocked primitives.
pub fn naive_extract_replicated<T: Scalar>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    index: usize,
) -> DistVector<T> {
    // Local pull of the line (same as optimized extract)...
    let v = crate::primitives::extract(hc, m, axis, index);
    let layout = *v.layout();
    let line = match layout.embedding() {
        VecEmbedding::Aligned { placement: Placement::Concentrated(l), .. } => *l,
        _ => unreachable!("extract returns a concentrated vector"),
    };
    // ...then element-granular fan-out instead of a tree broadcast.
    naive_fan_out(hc, &v, line);
    v.relabel(layout.with_placement(Placement::Replicated))
}

/// Naive `insert`: each holder of the vector sends each element
/// individually to the matrix element's owner.
///
/// # Panics
/// As [`crate::primitives::insert`], before anything is charged.
pub fn naive_insert<T: Scalar>(
    hc: &mut Hypercube,
    m: &mut DistMatrix<T>,
    axis: Axis,
    index: usize,
    v: &DistVector<T>,
) {
    let layout = *m.layout();
    check_insert(&layout, axis, index, v);
    // Primary holders push each element to the owning matrix node.
    let mut moves = Vec::with_capacity(v.n());
    for (part, chunk) in v.chunks().iter_segs().enumerate() {
        let src = v.layout().primary_node(part);
        for (slot, &x) in chunk.iter().enumerate() {
            let gi = v.layout().dist().global_index(part, slot);
            let (i, j) = match axis {
                Axis::Row => (index, gi),
                Axis::Col => (gi, index),
            };
            let owner = layout.owner(i, j);
            m.locals_mut()[owner][layout.local_offset(i, j)] = x;
            moves.push((src, owner));
        }
    }
    route_elements(hc, moves);
}

/// Element-granular fan-out of an aligned vector's parts from grid line
/// `line` to every other line: each holder sends each element
/// individually to the node holding the same part on every other line.
/// Every line then holds `v`'s parts, which the caller already has, so
/// only the router is charged.
fn naive_fan_out<T: Scalar>(hc: &mut Hypercube, v: &DistVector<T>, line: usize) {
    let VecEmbedding::Aligned { axis, .. } = *v.layout().embedding() else {
        unreachable!("only aligned vectors fan out across grid lines")
    };
    let grid = v.layout().grid();
    let lines = grid.lines(axis).0;
    let mut moves = Vec::new();
    for node in 0..grid.p() {
        let (src_line, part) = grid.line_and_part(axis, node);
        if src_line != line {
            continue;
        }
        for other in (0..lines).filter(|&l| l != line) {
            let dst = grid.node_on(axis, other, part);
            moves.extend(std::iter::repeat_n((node, dst), v.chunks().len_of(part)));
        }
    }
    route_elements(hc, moves);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::Sum;
    use crate::primitives;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{GridEncoding, MatShape, MatrixLayout, ProcGrid};

    fn setup(rows: usize, cols: usize) -> (Hypercube, DistMatrix<f64>) {
        let layout = MatrixLayout::new(
            MatShape::new(rows, cols),
            ProcGrid::new(Cube::new(4), 2),
            Dist::Cyclic,
            Dist::Cyclic,
        );
        let m = DistMatrix::from_fn(layout, |i, j| ((i * 13 + j * 7) % 19) as f64 - 9.0);
        (Hypercube::new(4, CostModel::cm2()), m)
    }

    #[test]
    fn naive_reduce_matches_optimized() {
        let (mut hc_n, m) = setup(12, 10);
        let naive = naive_reduce(&mut hc_n, &m, Axis::Row, Sum);
        let mut hc_o = Hypercube::new(4, CostModel::cm2());
        let opt = primitives::reduce(&mut hc_o, &m, Axis::Row, Sum);
        naive.assert_consistent();
        assert_eq!(naive.layout(), opt.layout());
        for (a, b) in naive.to_dense().iter().zip(opt.to_dense()) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(
            hc_n.elapsed_us() > hc_o.elapsed_us(),
            "naive {} should exceed optimized {}",
            hc_n.elapsed_us(),
            hc_o.elapsed_us()
        );
    }

    #[test]
    fn naive_reduce_col_axis() {
        let (mut hc, m) = setup(9, 11);
        let naive = naive_reduce(&mut hc, &m, Axis::Col, Sum);
        let mut hc_o = Hypercube::new(4, CostModel::cm2());
        let opt = primitives::reduce(&mut hc_o, &m, Axis::Col, Sum);
        for (a, b) in naive.to_dense().iter().zip(opt.to_dense()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn naive_distribute_matches_optimized() {
        let (mut hc, m) = setup(8, 8);
        let v = primitives::extract(&mut hc, &m, Axis::Row, 3);
        let mut hc_n = Hypercube::new(4, CostModel::cm2());
        let naive = naive_distribute(&mut hc_n, &v, 6, Dist::Cyclic);
        let mut hc_o = Hypercube::new(4, CostModel::cm2());
        let opt = primitives::distribute(&mut hc_o, &v, 6, Dist::Cyclic);
        naive.assert_consistent();
        assert_eq!(naive.to_dense(), opt.to_dense());
        assert!(hc_n.elapsed_us() > hc_o.elapsed_us());
    }

    #[test]
    fn naive_extract_replicated_matches_optimized() {
        let (mut hc_n, m) = setup(10, 10);
        let naive = naive_extract_replicated(&mut hc_n, &m, Axis::Row, 7);
        let mut hc_o = Hypercube::new(4, CostModel::cm2());
        let opt = primitives::extract_replicated(&mut hc_o, &m, Axis::Row, 7);
        naive.assert_consistent();
        assert_eq!(naive.layout(), opt.layout());
        assert_eq!(naive.to_dense(), opt.to_dense());
    }

    #[test]
    fn naive_insert_matches_optimized() {
        let (mut hc, m) = setup(8, 8);
        let v = primitives::extract_replicated(&mut hc, &m, Axis::Row, 1);
        let mut m_n = m.clone();
        let mut m_o = m.clone();
        let mut hc_n = Hypercube::new(4, CostModel::cm2());
        naive_insert(&mut hc_n, &mut m_n, Axis::Row, 6, &v);
        let mut hc_o = Hypercube::new(4, CostModel::cm2());
        primitives::insert(&mut hc_o, &mut m_o, Axis::Row, 6, &v);
        assert_eq!(m_n.to_dense(), m_o.to_dense());
    }

    #[test]
    #[should_panic(expected = "Row index 6 out of range 0..6")]
    fn naive_insert_checks_bounds() {
        let (mut hc, mut m) = setup(6, 6);
        let v = primitives::extract(&mut hc, &m, Axis::Row, 0);
        naive_insert(&mut hc, &mut m, Axis::Row, 6, &v);
    }

    #[test]
    #[should_panic(expected = "orientation must match")]
    fn naive_insert_rejects_wrong_axis() {
        // Square matrix, square grid, one rule: the row and column
        // chunkings coincide, so only the orientation check catches it.
        let (mut hc, mut m) = setup(6, 6);
        let v = primitives::extract(&mut hc, &m, Axis::Col, 0);
        assert_eq!(v.layout().dist(), m.layout().vector_dist(Axis::Row));
        naive_insert(&mut hc, &mut m, Axis::Row, 0, &v);
    }

    /// 13x11 matrices on Gray and binary 16-node grids, block and cyclic,
    /// whose float sums depend on the order they are folded in.
    fn order_sensitive() -> impl Iterator<Item = DistMatrix<f64>> {
        let grids = [GridEncoding::Gray, GridEncoding::Binary]
            .map(|enc| ProcGrid::with_encoding(Cube::new(4), 2, enc));
        grids.into_iter().flat_map(|grid| {
            [Dist::Block, Dist::Cyclic].map(|kind| {
                let layout = MatrixLayout::new(MatShape::new(13, 11), grid, kind, kind);
                DistMatrix::from_fn(layout, |i, j| {
                    let big = if (i + 2 * j) % 5 == 0 { 1e9 } else { 0.0 };
                    ((i * 13 + j * 7) % 19) as f64 * 0.1 + big
                })
            })
        })
    }

    /// The naive reduce folds, at each result element's primary holder,
    /// that node's own partial and then every other source's partial in
    /// ascending node order.
    #[test]
    fn naive_reduce_folds_the_primary_partial_then_ascending_nodes() {
        for m in order_sensitive() {
            let grid = m.layout().grid();
            for axis in [Axis::Row, Axis::Col] {
                let mut hc = Hypercube::new(4, CostModel::cm2());
                let got = naive_reduce(&mut hc, &m, axis, Sum);
                let partials = local_fold(&mut hc, &m, axis, Sum, |_| |_, _, x| x);
                let dist = got.layout().dist();
                let want = (0..got.n()).map(|i| {
                    let (part, slot) = (dist.owner(i), dist.local_index(i));
                    let primary = got.layout().primary_holder(i);
                    (0..grid.p())
                        .filter(|&n| n != primary && grid.line_and_part(axis, n).1 == part)
                        .fold(partials[primary][slot], |acc, n| Sum.combine(acc, partials[n][slot]))
                });
                let bits =
                    |xs: &mut dyn Iterator<Item = f64>| xs.map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(bits(&mut got.to_dense().into_iter()), bits(&mut want.into_iter()));
            }
        }
    }

    /// The naive insert writes what `insert` writes, bit for bit, from a
    /// replicated vector and from a concentrated one on either line.
    #[test]
    fn naive_insert_writes_what_insert_writes() {
        for m in order_sensitive() {
            for axis in [Axis::Row, Axis::Col] {
                let mut hc = Hypercube::new(4, CostModel::cm2());
                let v = primitives::extract(&mut hc, &m, axis, 2);
                for placement in [Placement::Replicated, Placement::Concentrated(3)] {
                    let v = DistVector::from_fn(v.layout().with_placement(placement), |i| v.get(i));
                    for index in [0, 5] {
                        let (mut naive, mut want) = (m.clone(), m.clone());
                        naive_insert(&mut hc, &mut naive, axis, index, &v);
                        primitives::insert(&mut hc, &mut want, axis, index, &v);
                        let bits = |m: &DistMatrix<f64>| {
                            m.to_dense().concat().into_iter().map(f64::to_bits).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&naive), bits(&want), "{axis:?} {placement:?} {index}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_gap_grows_with_problem_size() {
        // The headline: with more elements per processor, the per-element
        // router overhead piles up while blocked messages amortise.
        let ratio = |n: usize| {
            let layout = MatrixLayout::new(
                MatShape::new(n, n),
                ProcGrid::new(Cube::new(4), 2),
                Dist::Cyclic,
                Dist::Cyclic,
            );
            let m = DistMatrix::from_fn(layout, |i, j| (i + j) as f64);
            let mut hc_n = Hypercube::new(4, CostModel::cm2());
            let _ = naive_reduce(&mut hc_n, &m, Axis::Row, Sum);
            let mut hc_o = Hypercube::new(4, CostModel::cm2());
            let _ = primitives::reduce(&mut hc_o, &m, Axis::Row, Sum);
            hc_n.elapsed_us() / hc_o.elapsed_us()
        };
        let small = ratio(8);
        let large = ratio(64);
        assert!(large > small, "gap should grow: small {small:.1}x, large {large:.1}x");
        assert!(large > 3.0, "large problems should show a clear gap, got {large:.1}x");
    }
}
