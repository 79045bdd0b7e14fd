//! Local elementwise operations on distributed matrices and vectors.
//!
//! Everything in this module is communication-free: the operands are
//! aligned by construction (same matrix layout, or a replicated vector
//! whose chunking matches the matrix's axis distribution), so each node
//! combines purely local data. The machine is charged the critical-path
//! flop count, `ceil(n_r/p_r) * ceil(n_c/p_c)` per elementwise pass.
//!
//! Together with the four communication primitives these are the whole
//! programming model: the paper's applications are compositions of
//! {reduce, distribute, extract, insert} and local elementwise code.
//!
//! ## Kernel shape
//!
//! Every matrix kernel here is *tiled by local row*: a node's block is
//! stored row-major in one contiguous slab segment, so the drivers
//! stream each local row with `chunks_exact` — a contiguous,
//! bounds-check-free inner loop the compiler can autovectorise. A part's
//! global indices are affine in its local slots, so the kernels step
//! them instead of looking them up: rows zip with
//! `AxisDist::part_indices` of the node's grid row, each row's elements
//! with those of its grid column, and the rank-1 kernel, which touches
//! only a window of each block, steps from the window's first index by
//! `AxisDist::slot_stride`. The visit order (local offset order) and the
//! combine expressions are exactly those of the naive `local_elements`
//! walk, so results are bit-identical; only the host-side address
//! arithmetic changed.

use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::Axis;

use crate::elem::Scalar;
use crate::matrix::DistMatrix;
use crate::vector::DistVector;

impl<T: Scalar> DistMatrix<T> {
    /// Elementwise map with access to global indices:
    /// `out[i][j] = f(i, j, self[i][j])`.
    #[must_use]
    pub fn map<U: Scalar>(
        &self,
        hc: &mut Hypercube,
        f: impl Fn(usize, usize, T) -> U,
    ) -> DistMatrix<U> {
        let layout = *self.layout();
        let (grid, rows, cols) = (layout.grid(), layout.rows(), layout.cols());
        let locals = self.locals();
        let out = NodeSlab::build(grid.p(), locals.total_len(), |node, o| {
            let buf = &locals[node];
            if buf.is_empty() {
                return;
            }
            let (gr, gc) = grid.grid_coords(node);
            o.reserve(buf.len());
            for (i, row) in rows.part_indices(gr).zip(buf.chunks_exact(cols.count(gc))) {
                for (j, &x) in cols.part_indices(gc).zip(row) {
                    o.push(f(i, j, x));
                }
            }
        });
        hc.charge_flops(layout.max_local_len());
        DistMatrix::from_slab(layout, out)
    }

    /// In-place elementwise update: `self[i][j] = f(i, j, self[i][j])`.
    pub fn map_inplace(&mut self, hc: &mut Hypercube, f: impl Fn(usize, usize, T) -> T) {
        let layout = *self.layout();
        let (grid, rows, cols) = (layout.grid(), layout.rows(), layout.cols());
        self.locals_mut().for_each_seg_mut(|node, buf| {
            if buf.is_empty() {
                return;
            }
            let (gr, gc) = grid.grid_coords(node);
            for (i, row) in rows.part_indices(gr).zip(buf.chunks_exact_mut(cols.count(gc))) {
                for (j, x) in cols.part_indices(gc).zip(row.iter_mut()) {
                    *x = f(i, j, *x);
                }
            }
        });
        hc.charge_flops(layout.max_local_len());
    }

    /// Elementwise combination of two same-layout matrices:
    /// `out[i][j] = f(self[i][j], other[i][j])`.
    #[must_use]
    pub fn zip<U: Scalar, V: Scalar>(
        &self,
        hc: &mut Hypercube,
        other: &DistMatrix<U>,
        f: impl Fn(T, U) -> V,
    ) -> DistMatrix<V> {
        assert_eq!(self.layout(), other.layout(), "elementwise operands must share a layout");
        let layout = *self.layout();
        let p = layout.grid().p();
        let lhs = self.locals();
        let rhs = other.locals();
        let out = NodeSlab::build(p, lhs.total_len(), |node, o| {
            o.extend(lhs[node].iter().zip(&rhs[node]).map(|(&x, &y)| f(x, y)));
        });
        hc.charge_flops(layout.max_local_len());
        DistMatrix::from_slab(layout, out)
    }

    /// Combine with an axis-aligned **replicated** vector:
    /// for `Axis::Row`, `out[i][j] = f(i, j, self[i][j], v[j])` (a row
    /// vector is indexed by column); for `Axis::Col`,
    /// `out[i][j] = f(i, j, self[i][j], v[i])`.
    ///
    /// # Panics
    /// Panics unless `v` is aligned along `axis`, replicated, and chunked
    /// exactly like the matrix's corresponding axis — the alignment that
    /// makes the operation local. (Use `replicate`/`remap` to get there.)
    /// A product that is only reduced is better folded in place by
    /// [`crate::primitives::reduce_zip`].
    #[must_use]
    pub fn zip_axis<U: Scalar, V: Scalar>(
        &self,
        hc: &mut Hypercube,
        axis: Axis,
        v: &DistVector<U>,
        f: impl Fn(usize, usize, T, U) -> V,
    ) -> DistMatrix<V> {
        self.check_axis_aligned(axis, v);
        let layout = *self.layout();
        let (grid, rows, cols) = (layout.grid(), layout.rows(), layout.cols());
        let (locals, v_parts) = (self.locals(), v.chunks());
        let out = NodeSlab::build(grid.p(), locals.total_len(), |node, o| {
            let buf = &locals[node];
            if buf.is_empty() {
                return;
            }
            let (gr, gc) = grid.grid_coords(node);
            // A row vector's part is the grid column, a column vector's the row.
            let chunk = &v_parts[if axis == Axis::Row { gc } else { gr }];
            o.reserve(buf.len());
            let block = rows.part_indices(gr).zip(buf.chunks_exact(cols.count(gc)));
            match axis {
                // A row vector is indexed by the column slot.
                Axis::Row => {
                    for (i, row) in block {
                        for ((j, &x), &u) in cols.part_indices(gc).zip(row).zip(chunk) {
                            o.push(f(i, j, x, u));
                        }
                    }
                }
                // A column vector is constant across each local row.
                Axis::Col => {
                    for ((i, row), &u) in block.zip(chunk) {
                        for (j, &x) in cols.part_indices(gc).zip(row) {
                            o.push(f(i, j, x, u));
                        }
                    }
                }
            }
        });
        hc.charge_flops(layout.max_local_len());
        DistMatrix::from_slab(layout, out)
    }

    /// The rank-1 update kernel shared by Gaussian elimination, simplex
    /// pivoting and matrix multiply:
    /// `self[i][j] = f(i, j, self[i][j], col[i], row[j])` with `col` a
    /// replicated column vector and `row` a replicated row vector. Two
    /// aligned reads per element, still purely local: the
    /// [`DistMatrix::rank1_update_ranged`] kernel over the whole matrix.
    pub fn rank1_update<U: Scalar, V: Scalar>(
        &mut self,
        hc: &mut Hypercube,
        col: &DistVector<U>,
        row: &DistVector<V>,
        f: impl Fn(usize, usize, T, U, V) -> T,
    ) {
        self.rank1_update_ranged(hc, col, row, 0..self.shape().rows, 0..self.shape().cols, f);
    }

    /// Range-restricted rank-1 update: apply
    /// `self[i][j] = f(i, j, self[i][j], col[i], row[j])` only for
    /// `i in rows`, `j in cols`, touching — and charging — only the local
    /// slots inside the ranges, two flops (multiply + subtract, the
    /// honest count for the canonical `a -= c*r`) per slot on the
    /// busiest node. This is the active-submatrix update of
    /// Gaussian elimination: with a cyclic layout the charged critical
    /// path shrinks with the active region, with a block layout it
    /// concentrates on the processors owning the trailing corner — the
    /// load-balance difference bench T4 measures.
    pub fn rank1_update_ranged<U: Scalar, V: Scalar>(
        &mut self,
        hc: &mut Hypercube,
        col: &DistVector<U>,
        row: &DistVector<V>,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        f: impl Fn(usize, usize, T, U, V) -> T,
    ) {
        self.check_axis_aligned(Axis::Col, col);
        self.check_axis_aligned(Axis::Row, row);
        let layout = *self.layout();
        let locals = self.locals_mut();
        let (grid, row_dist, col_dist) = (layout.grid(), layout.rows(), layout.cols());
        // The window's local slots on every grid column, then on each grid
        // row in turn: only the blocks where both are non-empty are visited.
        let lj_ranges: Vec<_> =
            (0..grid.pc()).map(|gc| col_dist.local_slot_range(gc, cols.start, cols.end)).collect();
        // A part's global indices are affine in its slots.
        let (di, dj) = (row_dist.slot_stride(), col_dist.slot_stride());
        let (col_parts, row_parts) = (col.chunks(), row.chunks());
        let mut max_rows = 0;
        for gr in 0..grid.pr() {
            let li_range = row_dist.local_slot_range(gr, rows.start, rows.end);
            max_rows = max_rows.max(li_range.len());
            if li_range.is_empty() {
                continue;
            }
            let i0 = row_dist.global_index(gr, li_range.start);
            for (gc, lj_range) in lj_ranges.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
                let node = grid.node_at(gr, gc);
                let j0 = col_dist.global_index(gc, lj_range.start);
                let lc = col_dist.count(gc);
                let col_chunk = &col_parts[gr];
                let row_window = &row_parts[gc][lj_range.clone()];
                let buf = locals.seg_mut(node);
                for (t, li) in li_range.clone().enumerate() {
                    let (i, c) = (i0 + t * di, col_chunk[li]);
                    let base = li * lc;
                    let window = &mut buf[base + lj_range.start..base + lj_range.end];
                    for ((u, &r), a) in row_window.iter().enumerate().zip(window.iter_mut()) {
                        *a = f(i, j0 + u * dj, *a, c, r);
                    }
                }
            }
        }
        // The busiest block holds the most window rows and window columns.
        let max_cols = lj_ranges.iter().map(ExactSizeIterator::len).max().unwrap_or(0);
        hc.charge_flops(2 * max_rows * max_cols);
    }

    pub(crate) fn check_axis_aligned<U: Scalar>(&self, axis: Axis, v: &DistVector<U>) {
        use vmp_layout::{Placement, VecEmbedding};
        let expected_dist = self.layout().vector_dist(axis);
        match v.layout().embedding() {
            VecEmbedding::Aligned { axis: va, placement: Placement::Replicated } if *va == axis => {
                assert_eq!(
                    v.layout().dist(),
                    expected_dist,
                    "vector chunking must match the matrix's {axis:?} distribution"
                );
            }
            other => panic!(
                "vector must be {axis:?}-aligned and replicated for local combination, got {other:?}"
            ),
        }
    }
}

impl<T: Scalar> DistVector<T> {
    /// Elementwise map with the global index: `out[i] = f(i, self[i])`.
    /// One pass over the parts; charged as one pass over every holder's
    /// chunk.
    #[must_use]
    pub fn map<U: Scalar>(&self, hc: &mut Hypercube, f: impl Fn(usize, T) -> U) -> DistVector<U> {
        let layout = *self.layout();
        let (dist, parts) = (layout.dist(), self.chunks());
        let out = NodeSlab::build(parts.p(), parts.total_len(), |part, o| {
            o.extend(dist.part_indices(part).zip(&parts[part]).map(|(i, &x)| f(i, x)));
        });
        hc.charge_flops(dist.max_count());
        DistVector::from_chunks(layout, out)
    }

    /// In-place elementwise update with the global index:
    /// `self[i] = f(i, self[i])`. Charged exactly like
    /// [`DistVector::map`], without building a new vector.
    pub fn map_inplace(&mut self, hc: &mut Hypercube, f: impl Fn(usize, T) -> T) {
        let dist = *self.layout().dist();
        self.parts_mut().for_each_seg_mut(|part, buf| {
            for (i, x) in dist.part_indices(part).zip(buf) {
                *x = f(i, *x);
            }
        });
        hc.charge_flops(dist.max_count());
    }

    /// Elementwise combination of two identically laid out vectors.
    #[must_use]
    pub fn zip<U: Scalar, V: Scalar>(
        &self,
        hc: &mut Hypercube,
        other: &DistVector<U>,
        f: impl Fn(usize, T, U) -> V,
    ) -> DistVector<V> {
        assert_eq!(self.layout(), other.layout(), "zip operands must share a layout");
        let layout = *self.layout();
        let (dist, lhs, rhs) = (layout.dist(), self.chunks(), other.chunks());
        let out = NodeSlab::build(lhs.p(), lhs.total_len(), |part, o| {
            let pairs = lhs[part].iter().zip(&rhs[part]);
            o.extend(dist.part_indices(part).zip(pairs).map(|(i, (&x, &y))| f(i, x, y)));
        });
        hc.charge_flops(dist.max_count());
        DistVector::from_chunks(layout, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Dist, MatShape, MatrixLayout, Placement, ProcGrid, VectorLayout};

    fn setup(rows: usize, cols: usize) -> (Hypercube, MatrixLayout) {
        let grid = ProcGrid::new(Cube::new(4), 2);
        let layout = MatrixLayout::new(MatShape::new(rows, cols), grid, Dist::Cyclic, Dist::Cyclic);
        (Hypercube::new(4, CostModel::unit()), layout)
    }

    #[test]
    fn map_applies_with_global_indices() {
        let (mut hc, layout) = setup(6, 7);
        let m = DistMatrix::from_fn(layout, |i, j| (i + j) as i64);
        let out = m.map(&mut hc, |i, j, v| v * 2 + (i == j) as i64);
        for i in 0..6 {
            for j in 0..7 {
                assert_eq!(out.get(i, j), 2 * (i + j) as i64 + (i == j) as i64);
            }
        }
        assert!(hc.counters().flops > 0);
    }

    #[test]
    fn zip_combines_same_layout_matrices() {
        let (mut hc, layout) = setup(5, 5);
        let a = DistMatrix::from_fn(layout, |i, j| (i * 5 + j) as f64);
        let b = DistMatrix::from_fn(layout, |i, j| (i as f64) - (j as f64));
        let c = a.zip(&mut hc, &b, |x, y| x * y);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(c.get(i, j), ((i * 5 + j) as f64) * (i as f64 - j as f64));
            }
        }
    }

    #[test]
    fn zip_axis_row_vector_indexes_by_column() {
        let (mut hc, layout) = setup(4, 6);
        let m = DistMatrix::from_fn(layout, |i, j| (i * 10 + j) as f64);
        let vl =
            VectorLayout::aligned(6, layout.grid(), Axis::Row, Placement::Replicated, Dist::Cyclic);
        let v = DistVector::from_fn(vl, |j| j as f64 + 100.0);
        let out = m.zip_axis(&mut hc, Axis::Row, &v, |_, j, a, x| {
            assert_eq!(x, j as f64 + 100.0);
            a + x
        });
        for i in 0..4 {
            for j in 0..6 {
                assert_eq!(out.get(i, j), (i * 10 + j) as f64 + j as f64 + 100.0);
            }
        }
    }

    #[test]
    fn zip_axis_col_vector_indexes_by_row() {
        let (mut hc, layout) = setup(8, 3);
        let m = DistMatrix::from_fn(layout, |i, j| (i * 10 + j) as f64);
        let vl =
            VectorLayout::aligned(8, layout.grid(), Axis::Col, Placement::Replicated, Dist::Cyclic);
        let v = DistVector::from_fn(vl, |i| (i * i) as f64);
        let out = m.zip_axis(&mut hc, Axis::Col, &v, |i, _, a, x| {
            assert_eq!(x, (i * i) as f64);
            a * x
        });
        for i in 0..8 {
            for j in 0..3 {
                assert_eq!(out.get(i, j), (i * 10 + j) as f64 * (i * i) as f64);
            }
        }
    }

    #[test]
    fn rank1_update_is_the_ge_kernel() {
        let (mut hc, layout) = setup(6, 6);
        let mut m = DistMatrix::from_fn(layout, |i, j| (i * 6 + j) as f64);
        let col_l =
            VectorLayout::aligned(6, layout.grid(), Axis::Col, Placement::Replicated, Dist::Cyclic);
        let row_l =
            VectorLayout::aligned(6, layout.grid(), Axis::Row, Placement::Replicated, Dist::Cyclic);
        let col = DistVector::from_fn(col_l, |i| (i + 1) as f64);
        let row = DistVector::from_fn(row_l, |j| (j + 2) as f64);
        m.rank1_update(&mut hc, &col, &row, |_, _, a, c, r| a - c * r);
        for i in 0..6 {
            for j in 0..6 {
                let expect = (i * 6 + j) as f64 - (i + 1) as f64 * (j + 2) as f64;
                assert_eq!(m.get(i, j), expect);
            }
        }
        assert_eq!(
            hc.counters().flops,
            2 * m.layout().max_local_len() as u64,
            "two flops per local element on the critical path"
        );
    }

    /// Every window shape on Gray and binary grids, square and not: a
    /// general window, one that meets a single grid row or a single grid
    /// column, empty ones, and the whole matrix. Elements outside the
    /// window keep their bits, and the charge is exactly two flops per
    /// window element of the busiest node.
    #[test]
    fn rank1_update_ranged_touches_only_the_window() {
        use vmp_layout::GridEncoding;
        let windows =
            [(3..7, 2..9), (4..5, 2..9), (3..7, 6..7), (5..5, 2..9), (3..7, 9..9), (0..9, 0..9)];
        for (kind, dim, dr, enc) in [Dist::Block, Dist::Cyclic].into_iter().flat_map(|k| {
            [(4u32, 0u32), (4, 1), (4, 2), (4, 3), (4, 4), (5, 2)].into_iter().flat_map(
                move |(d, r)| [GridEncoding::Gray, GridEncoding::Binary].map(|e| (k, d, r, e)),
            )
        }) {
            let grid = ProcGrid::with_encoding(Cube::new(dim), dr, enc);
            let layout = MatrixLayout::new(MatShape::new(9, 9), grid, kind, kind);
            let col_l =
                VectorLayout::aligned(9, layout.grid(), Axis::Col, Placement::Replicated, kind);
            let row_l =
                VectorLayout::aligned(9, layout.grid(), Axis::Row, Placement::Replicated, kind);
            let col = DistVector::from_fn(col_l, |i| (i + 1) as f64);
            let row = DistVector::from_fn(row_l, |j| (j + 2) as f64);
            for (rows, cols) in windows.clone() {
                let what = format!("{kind:?} dim {dim} dr {dr} {enc:?} window {rows:?} x {cols:?}");
                let mut hc = Hypercube::new(dim, CostModel::unit());
                let mut m = DistMatrix::from_fn(layout, |i, j| (i * 9 + j) as f64);
                let mut expect = m.to_dense();
                // `f` reads the global indices, so a wrong index shows.
                m.rank1_update_ranged(
                    &mut hc,
                    &col,
                    &row,
                    rows.clone(),
                    cols.clone(),
                    |i, j, a, c, r| a - c * r + (i * 100 + j) as f64,
                );
                let mut window_slots = vec![0usize; layout.grid().p()];
                for (i, row_e) in expect.iter_mut().enumerate() {
                    for (j, e) in row_e.iter_mut().enumerate() {
                        if rows.contains(&i) && cols.contains(&j) {
                            *e += (i * 100 + j) as f64 - (i + 1) as f64 * (j + 2) as f64;
                            window_slots[layout.owner(i, j)] += 1;
                        }
                    }
                }
                assert_eq!(m.to_dense(), expect, "{what}");
                let critical = window_slots.into_iter().max().unwrap_or(0);
                assert_eq!(hc.counters().flops, 2 * critical as u64, "{what}: charge");
            }
        }
    }

    #[test]
    fn ranged_update_charges_less_than_full() {
        let grid = ProcGrid::new(Cube::new(4), 2);
        let layout = MatrixLayout::new(MatShape::new(16, 16), grid, Dist::Cyclic, Dist::Cyclic);
        let col_l = VectorLayout::aligned(
            16,
            layout.grid(),
            Axis::Col,
            Placement::Replicated,
            Dist::Cyclic,
        );
        let row_l = VectorLayout::aligned(
            16,
            layout.grid(),
            Axis::Row,
            Placement::Replicated,
            Dist::Cyclic,
        );
        let col = DistVector::from_fn(col_l, |i| i as f64);
        let row = DistVector::from_fn(row_l, |j| j as f64);

        let mut hc_full = Hypercube::new(4, CostModel::unit());
        let mut m1 = DistMatrix::from_fn(layout, |_, _| 1.0f64);
        m1.rank1_update(&mut hc_full, &col, &row, |_, _, a, _, _| a);

        let mut hc_ranged = Hypercube::new(4, CostModel::unit());
        let mut m2 = DistMatrix::from_fn(layout, |_, _| 1.0f64);
        m2.rank1_update_ranged(&mut hc_ranged, &col, &row, 12..16, 12..16, |_, _, a, _, _| a);

        assert!(
            hc_ranged.counters().flops < hc_full.counters().flops / 4,
            "ranged {} vs full {}",
            hc_ranged.counters().flops,
            hc_full.counters().flops
        );
    }

    #[test]
    fn vector_map_and_zip() {
        let grid = ProcGrid::new(Cube::new(3), 1);
        let mut hc = Hypercube::new(3, CostModel::unit());
        let layout = VectorLayout::linear(10, grid, Dist::Block);
        let v = DistVector::from_fn(layout, |i| i as i64);
        let w = v.map(&mut hc, |i, x| x * 2 + i as i64);
        assert_eq!(w.to_dense(), (0..10).map(|i| 3 * i as i64).collect::<Vec<_>>());
        let z = v.zip(&mut hc, &w, |_, a, b| a + b);
        assert_eq!(z.to_dense(), (0..10).map(|i| 4 * i as i64).collect::<Vec<_>>());
    }

    #[test]
    fn vector_map_inplace_is_bit_identical_to_map() {
        let grid = ProcGrid::new(Cube::new(4), 2);
        let layouts = [
            VectorLayout::linear(13, grid, Dist::Block),
            VectorLayout::aligned(11, grid, Axis::Row, Placement::Replicated, Dist::Cyclic),
            VectorLayout::aligned(9, grid, Axis::Col, Placement::Concentrated(2), Dist::Block),
            VectorLayout::linear(3, ProcGrid::new(Cube::new(0), 0), Dist::Cyclic),
        ];
        for layout in layouts {
            let dim = layout.grid().cube().dim();
            let v = DistVector::from_fn(layout, |i| (i as f64 * 0.7).sin());
            let f = |i: usize, x: f64| if i % 3 == 1 { x * 1.1 + 0.3 } else { x / 7.0 };
            // Pre-charged clocks, so a charge merged into another shows.
            let mut hc_map = Hypercube::new(dim, CostModel::cm2());
            let mut hc_inplace = Hypercube::new(dim, CostModel::cm2());
            hc_map.charge_flops(3);
            hc_inplace.charge_flops(3);
            let want = v.map(&mut hc_map, f);
            let mut got = v.clone();
            got.map_inplace(&mut hc_inplace, f);
            let bits = |v: &DistVector<f64>| -> Vec<Vec<u64>> {
                v.chunks().iter_segs().map(|s| s.iter().map(|x| x.to_bits()).collect()).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{layout:?}: payload");
            assert_eq!(hc_inplace.elapsed_us().to_bits(), hc_map.elapsed_us().to_bits());
            assert_eq!(hc_inplace.counters(), hc_map.counters());
        }
    }

    #[test]
    #[should_panic(expected = "aligned and replicated")]
    fn zip_axis_rejects_concentrated_vectors() {
        let (mut hc, layout) = setup(4, 4);
        let m = DistMatrix::from_fn(layout, |_, _| 0.0f64);
        let vl = VectorLayout::aligned(
            4,
            layout.grid(),
            Axis::Row,
            Placement::Concentrated(0),
            Dist::Cyclic,
        );
        let v = DistVector::from_fn(vl, |_| 0.0f64);
        let _ = m.zip_axis(&mut hc, Axis::Row, &v, |_, _, a, _| a);
    }

    #[test]
    #[should_panic(expected = "chunking must match")]
    fn zip_axis_rejects_mismatched_chunking() {
        let (mut hc, layout) = setup(4, 4);
        let m = DistMatrix::from_fn(layout, |_, _| 0.0f64);
        let vl = VectorLayout::aligned(
            4,
            layout.grid(),
            Axis::Row,
            Placement::Replicated,
            Dist::Block, // matrix is cyclic
        );
        let v = DistVector::from_fn(vl, |_| 0.0f64);
        let _ = m.zip_axis(&mut hc, Axis::Row, &v, |_, _, a, _| a);
    }
}
