//! `reduce`: combine all rows (or columns) of a matrix into one vector.

use vmp_hypercube::collective;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{Axis, MatrixLayout, Placement, VectorLayout};

use crate::elem::{ReduceOp, Scalar};
use crate::matrix::DistMatrix;
use crate::vector::DistVector;

/// The one fold kernel: fold every node's local block along `axis` into
/// a partial vector (for `Axis::Row`, partial `[lj] = op-fold over li`;
/// for `Axis::Col`, partial `[li] = op-fold over lj`), reading element
/// `(li, lj)` as `lift(li, lj, x)` with `lift = at(node)`. Each partial
/// is its own left fold, the identity first and then its elements in
/// local offset order, as in the naive offset walk; only independent
/// partials interleave, so no bit changes. Over rows, `chunks_exact(lc)`
/// rows stream into the `lc` partials; over columns, four rows are
/// folded at a time as four independent chains, and the `lr % 4` rows
/// left over one chain each. Charges the fold's flops.
pub(crate) fn local_fold<T: Scalar, U: Scalar, O: ReduceOp<U>, L: Fn(usize, usize, T) -> U>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    op: O,
    at: impl Fn(usize) -> L,
) -> NodeSlab<U> {
    let layout = m.layout();
    let p = layout.grid().p();
    let locals = m.locals();
    // Every grid line orthogonal to `axis` holds one partial per index.
    let total_hint = layout.grid().lines(axis).0 * layout.shape().vector_len(axis);
    let partials = NodeSlab::build(p, total_hint, |node, out| {
        // `out` may already hold earlier nodes' segments (the builder
        // hands one shared buffer); fold into this node's suffix only.
        let (lr, lc) = layout.local_shape(node);
        let start = out.len();
        let len = match axis {
            Axis::Row => lc,
            Axis::Col => lr,
        };
        out.extend(std::iter::repeat_with(|| op.identity()).take(len));
        let buf = &locals[node];
        if buf.is_empty() {
            return;
        }
        let lift = at(node);
        let acc = &mut out[start..];
        match axis {
            Axis::Row => {
                for (li, row) in buf.chunks_exact(lc).enumerate() {
                    for (lj, (a, &x)) in acc.iter_mut().zip(row).enumerate() {
                        *a = op.combine(*a, lift(li, lj, x));
                    }
                }
            }
            Axis::Col => {
                // Four rows' chains side by side, so no add waits on the
                // one before it; zipped slices keep the loads unchecked.
                let mut quads = buf.chunks_exact(4 * lc);
                let mut acc4 = acc.chunks_exact_mut(4);
                for (q, (quad, a)) in (&mut quads).zip(&mut acc4).enumerate() {
                    let (r01, r23) = quad.split_at(2 * lc);
                    let ((r0, r1), (r2, r3)) = (r01.split_at(lc), r23.split_at(lc));
                    let li = 4 * q;
                    let mut s = [op.identity(); 4];
                    let cols = r0.iter().zip(r1).zip(r2).zip(r3).enumerate();
                    for (lj, (((&x0, &x1), &x2), &x3)) in cols {
                        s[0] = op.combine(s[0], lift(li, lj, x0));
                        s[1] = op.combine(s[1], lift(li + 1, lj, x1));
                        s[2] = op.combine(s[2], lift(li + 2, lj, x2));
                        s[3] = op.combine(s[3], lift(li + 3, lj, x3));
                    }
                    a.copy_from_slice(&s);
                }
                let rest = quads.remainder().chunks_exact(lc).zip(acc4.into_remainder());
                for (li, (row, a)) in (lr - lr % 4..).zip(rest) {
                    *a = row
                        .iter()
                        .enumerate()
                        .fold(*a, |a, (lj, &x)| op.combine(a, lift(li, lj, x)));
                }
            }
        }
    });
    hc.charge_flops(layout.max_local_len());
    partials
}

/// Combine the partials over the cube dims encoding the grid-row
/// (`Axis::Row`) or grid-column (`Axis::Col`) index: a butterfly for a
/// replicated result, a binomial tree for a concentrated one. The result
/// keeps one copy of each part, from its primary line.
fn combine_partials<U: Scalar, O: ReduceOp<U>>(
    hc: &mut Hypercube,
    layout: &MatrixLayout,
    axis: Axis,
    op: O,
    mut partials: NodeSlab<U>,
    placement: Placement,
) -> DistVector<U> {
    let grid = layout.grid();
    let dims = grid.lines(axis).1;
    match placement {
        Placement::Replicated => {
            // Every line ends up with the same parts: keep line 0's, the
            // subcubes' representatives.
            let combine = |a, b| op.combine(a, b);
            collective::allreduce_to_representatives(hc, &mut partials, dims, combine);
        }
        Placement::Concentrated(line) => {
            let root = grid.line_coord(axis, line);
            collective::reduce_slab(hc, &mut partials, dims, root, |a, b| op.combine(a, b));
        }
    }
    let (n, kind) = (layout.shape().vector_len(axis), layout.vector_dist(axis).kind());
    DistVector::from_primary_line(VectorLayout::aligned(n, grid, axis, placement, kind), &partials)
}

/// Reduce all rows (`Axis::Row`) or columns (`Axis::Col`) of `m` into one
/// vector with the commutative associative operator `op`.
///
/// The result comes back **aligned and replicated** — the embedding an
/// all-reduce produces for free, and the one `distribute` and the
/// elementwise `zip_axis` combinators consume without further
/// communication. A combination of `m` with an aligned vector that is
/// only reduced (the matvec shape) is folded in place by [`reduce_zip`].
///
/// Cost: `gamma * ceil(n_r/p_r) * ceil(n_c/p_c)` local fold +
/// `d_r * (alpha + (beta + gamma) * ceil(n_c/p_c))` butterfly (Row case).
pub fn reduce<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    op: O,
) -> DistVector<T> {
    let partials = local_fold(hc, m, axis, op, |_| |_, _, x| x);
    combine_partials(hc, m.layout(), axis, op, partials, Placement::Replicated)
}

/// `reduce(hc, &m.zip_axis(hc, along, v, f), axis, op)` without the
/// `m`-sized temporary: each `f(i, j, m[i][j], v[..])` is folded as soon
/// as it is formed. Payload, clock and counters are bit-identical to the
/// two-step spelling: same fold order, same charges.
///
/// # Panics
/// As [`DistMatrix::zip_axis`]: unless `v` is `along`-aligned,
/// replicated and chunked exactly like the matrix's `along` axis.
pub fn reduce_zip<T: Scalar, W: Scalar, U: Scalar, O: ReduceOp<U>>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    along: Axis,
    v: &DistVector<W>,
    f: impl Fn(usize, usize, T, W) -> U,
    axis: Axis,
    op: O,
) -> DistVector<U> {
    m.check_axis_aligned(along, v);
    let layout = m.layout();
    hc.charge_flops(layout.max_local_len()); // the zip pass
    let (f, v_parts) = (&f, v.chunks());
    let (rows, cols) = (layout.rows(), layout.cols());
    let (di, dj) = (rows.slot_stride(), cols.slot_stride());
    let partials = local_fold(hc, m, axis, op, |node| {
        let (gr, gc) = layout.grid().grid_coords(node);
        // A row vector's part is the grid column, a column vector's the row.
        let chunk = &v_parts[if along == Axis::Row { gc } else { gr }];
        let (i0, j0) = (rows.first_index(gr), cols.first_index(gc));
        move |li: usize, lj: usize, x| {
            // A row vector is indexed by the column slot, a column
            // vector by the row slot.
            let u = match along {
                Axis::Row => chunk[lj],
                Axis::Col => chunk[li],
            };
            f(i0 + li * di, j0 + lj * dj, x, u)
        }
    });
    combine_partials(hc, layout, axis, op, partials, Placement::Replicated)
}

/// As [`reduce`], but the result is **concentrated** on one grid line
/// (`line` = a grid-row index for `Axis::Row`, a grid-column index for
/// `Axis::Col`), using a binomial-tree reduction instead of a butterfly.
/// Same asymptotic cost; the non-replicated embedding is what you want
/// when the vector immediately leaves the matrix world.
pub fn reduce_to<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    op: O,
    line: usize,
) -> DistVector<T> {
    let partials = local_fold(hc, m, axis, op, |_| |_, _, x| x);
    combine_partials(hc, m.layout(), axis, op, partials, Placement::Concentrated(line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::{Max, Min, Sum};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Dist, MatShape, ProcGrid};

    fn setup(
        rows: usize,
        cols: usize,
        dim: u32,
        dr: u32,
        kind: Dist,
    ) -> (Hypercube, DistMatrix<f64>) {
        let layout = MatrixLayout::new(
            MatShape::new(rows, cols),
            ProcGrid::new(Cube::new(dim), dr),
            kind,
            kind,
        );
        let m = DistMatrix::from_fn(layout, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.0);
        (Hypercube::new(dim, CostModel::unit()), m)
    }

    fn dense_reduce(
        m: &DistMatrix<f64>,
        axis: Axis,
        f: impl Fn(f64, f64) -> f64,
        id: f64,
    ) -> Vec<f64> {
        let d = m.to_dense();
        match axis {
            Axis::Row => {
                (0..m.shape().cols).map(|j| d.iter().fold(id, |acc, row| f(acc, row[j]))).collect()
            }
            Axis::Col => d.iter().map(|row| row.iter().fold(id, |acc, &v| f(acc, v))).collect(),
        }
    }

    #[test]
    fn reduce_rows_sums_columns() {
        for kind in [Dist::Block, Dist::Cyclic] {
            let (mut hc, m) = setup(12, 9, 4, 2, kind);
            let v = reduce(&mut hc, &m, Axis::Row, Sum);
            v.assert_consistent();
            assert_eq!(v.n(), 9);
            let expect = dense_reduce(&m, Axis::Row, |a, b| a + b, 0.0);
            for (a, b) in v.to_dense().iter().zip(&expect) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn reduce_cols_sums_rows() {
        let (mut hc, m) = setup(7, 13, 4, 1, Dist::Cyclic);
        let v = reduce(&mut hc, &m, Axis::Col, Sum);
        v.assert_consistent();
        assert_eq!(v.n(), 7);
        let expect = dense_reduce(&m, Axis::Col, |a, b| a + b, 0.0);
        for (a, b) in v.to_dense().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn reduce_with_min_and_max() {
        let (mut hc, m) = setup(10, 10, 4, 2, Dist::Block);
        let vmax = reduce(&mut hc, &m, Axis::Row, Max);
        let vmin = reduce(&mut hc, &m, Axis::Col, Min);
        assert_eq!(vmax.to_dense(), dense_reduce(&m, Axis::Row, f64::max, f64::NEG_INFINITY));
        assert_eq!(vmin.to_dense(), dense_reduce(&m, Axis::Col, f64::min, f64::INFINITY));
    }

    #[test]
    fn reduce_to_concentrates_on_requested_line() {
        let (mut hc, m) = setup(8, 8, 4, 2, Dist::Cyclic);
        let v = reduce_to(&mut hc, &m, Axis::Row, Sum, 2);
        v.assert_consistent();
        match v.layout().embedding() {
            vmp_layout::VecEmbedding::Aligned { placement: Placement::Concentrated(2), .. } => {}
            other => panic!("unexpected embedding {other:?}"),
        }
        let expect = dense_reduce(&m, Axis::Row, |a, b| a + b, 0.0);
        for (a, b) in v.to_dense().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(v.layout().stored_elements(), 8, "exactly one copy");
    }

    #[test]
    fn reduce_charges_dr_message_steps() {
        let (mut hc, m) = setup(16, 16, 4, 3, Dist::Block);
        let _ = reduce(&mut hc, &m, Axis::Row, Sum);
        assert_eq!(hc.counters().message_steps, 3, "d_r butterfly steps");
        let (mut hc2, m2) = setup(16, 16, 4, 3, Dist::Block);
        let _ = reduce(&mut hc2, &m2, Axis::Col, Sum);
        assert_eq!(hc2.counters().message_steps, 1, "d_c butterfly steps");
    }

    /// `combine(a, b) = a * K ^ b` is neither associative nor commutative:
    /// its result pins the exact left-fold sequence of each output.
    #[derive(Debug, Clone, Copy)]
    struct Chain;

    impl ReduceOp<u64> for Chain {
        fn identity(&self) -> u64 {
            0
        }
        fn combine(&self, a: u64, b: u64) -> u64 {
            a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b
        }
    }

    /// Every output of the local fold is its own left fold, identity
    /// first and then in index order, whatever the local block's shape:
    /// empty, fewer rows than the four-row fold takes at once, and every
    /// remainder past whole groups of four.
    #[test]
    fn local_fold_keeps_each_outputs_left_fold_order() {
        for lr in 0..=9 {
            for lc in 0..=5 {
                let layout = MatrixLayout::new(
                    MatShape::new(lr, lc),
                    ProcGrid::new(Cube::new(0), 0),
                    Dist::Block,
                    Dist::Block,
                );
                let m = DistMatrix::from_fn(layout, |i, j| (i * 8 + j + 1) as u64 * 0x1234_5677);
                let d = m.to_dense();
                let fold =
                    |xs: &mut dyn Iterator<Item = u64>| xs.fold(0, |a, x| Chain.combine(a, x));
                let by_col: Vec<u64> =
                    (0..lc).map(|j| fold(&mut d.iter().map(|row| row[j]))).collect();
                let by_row: Vec<u64> = d.iter().map(|row| fold(&mut row.iter().copied())).collect();
                for (axis, want) in [(Axis::Row, by_col), (Axis::Col, by_row)] {
                    let mut hc = Hypercube::new(0, CostModel::unit());
                    let case = format!("{lr}x{lc} {axis:?}");
                    assert_eq!(reduce(&mut hc, &m, axis, Chain).to_dense(), want, "{case}");
                    assert_eq!(reduce_to(&mut hc, &m, axis, Chain, 0).to_dense(), want, "{case}");
                }
            }
        }
    }

    #[test]
    fn reduce_on_single_node_machine() {
        let (mut hc, m) = setup(5, 4, 0, 0, Dist::Block);
        let v = reduce(&mut hc, &m, Axis::Row, Sum);
        let expect = dense_reduce(&m, Axis::Row, |a, b| a + b, 0.0);
        assert_eq!(v.to_dense(), expect);
        assert_eq!(hc.counters().message_steps, 0, "no communication on p = 1");
    }

    #[test]
    fn reduce_tall_skinny_and_wide_flat() {
        let (mut hc, m) = setup(64, 2, 4, 2, Dist::Cyclic);
        let v = reduce(&mut hc, &m, Axis::Row, Sum);
        let expect = dense_reduce(&m, Axis::Row, |a, b| a + b, 0.0);
        for (a, b) in v.to_dense().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
        let (mut hc2, m2) = setup(2, 64, 4, 2, Dist::Cyclic);
        let w = reduce(&mut hc2, &m2, Axis::Col, Sum);
        let expect2 = dense_reduce(&m2, Axis::Col, |a, b| a + b, 0.0);
        for (a, b) in w.to_dense().iter().zip(&expect2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// The fused fold against the spelled-out `zip_axis` + `reduce` on
    /// random non-integer data, where any change in fold order shows:
    /// same payload bits in every replica, same clock bits, same counters.
    #[test]
    fn reduce_zip_is_bit_identical_to_zip_then_reduce() {
        let mut rng = StdRng::seed_from_u64(1989);
        // (rows, cols, dim, dr): square grid, non-square grid, empty local
        // blocks (rows < p_r), one processor.
        for (rows, cols, dim, dr) in [(13, 11, 4, 2), (9, 14, 5, 2), (3, 10, 4, 3), (7, 5, 0, 0)] {
            for kind in [Dist::Block, Dist::Cyclic] {
                let layout = MatrixLayout::new(
                    MatShape::new(rows, cols),
                    ProcGrid::new(Cube::new(dim), dr),
                    kind,
                    kind,
                );
                let m = DistMatrix::from_fn(layout, |_, _| rng.gen_range(-1.0..1.0));
                for along in [Axis::Row, Axis::Col] {
                    let vl = VectorLayout::aligned(
                        layout.shape().vector_len(along),
                        layout.grid(),
                        along,
                        Placement::Replicated,
                        kind,
                    );
                    let v = DistVector::from_fn(vl, |_| rng.gen_range(-1.0..1.0));
                    let f =
                        |i: usize, j: usize, a: f64, x: f64| a * x + (i as f64 - j as f64) / 7.0;
                    for axis in [Axis::Row, Axis::Col] {
                        for cost in [CostModel::cm2(), CostModel::cm2_allport()] {
                            let case =
                                format!("{rows}x{cols} dim {dim} {kind:?} {along:?}/{axis:?}");
                            // A clock that already reads a fraction, so one
                            // merged charge `2a` would round differently from
                            // the two charges `a`, `a`.
                            let machine = || {
                                let mut hc = Hypercube::new(dim, cost);
                                hc.charge_moves(1);
                                hc
                            };
                            let mut hc_ref = machine();
                            let prod = m.zip_axis(&mut hc_ref, along, &v, f);
                            let want = reduce(&mut hc_ref, &prod, axis, Sum);
                            let mut hc = machine();
                            let got = reduce_zip(&mut hc, &m, along, &v, f, axis, Sum);
                            assert_eq!(got.layout(), want.layout(), "{case}");
                            let bits = |v: &DistVector<f64>| {
                                v.chunks().data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(bits(&got), bits(&want), "{case}");
                            assert_eq!(
                                hc.elapsed_us().to_bits(),
                                hc_ref.elapsed_us().to_bits(),
                                "{case}"
                            );
                            assert_eq!(hc.counters(), hc_ref.counters(), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "aligned and replicated")]
    fn reduce_zip_rejects_concentrated_vectors() {
        let (mut hc, m) = setup(4, 4, 4, 2, Dist::Cyclic);
        let vl = VectorLayout::aligned(
            4,
            m.layout().grid(),
            Axis::Row,
            Placement::Concentrated(0),
            Dist::Cyclic,
        );
        let v = DistVector::from_fn(vl, |_| 0.0f64);
        let _ = reduce_zip(&mut hc, &m, Axis::Row, &v, |_, _, a, _| a, Axis::Col, Sum);
    }

    #[test]
    #[should_panic(expected = "chunking must match")]
    fn reduce_zip_rejects_mismatched_chunking() {
        let (mut hc, m) = setup(4, 4, 4, 2, Dist::Cyclic);
        let vl = VectorLayout::aligned(
            4,
            m.layout().grid(),
            Axis::Row,
            Placement::Replicated,
            Dist::Block, // matrix is cyclic
        );
        let v = DistVector::from_fn(vl, |_| 0.0f64);
        let _ = reduce_zip(&mut hc, &m, Axis::Row, &v, |_, _, a, _| a, Axis::Col, Sum);
    }
}
