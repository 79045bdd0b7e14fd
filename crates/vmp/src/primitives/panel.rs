//! Panel (multi-row / multi-column) extensions of `extract`.
//!
//! The four primitives operate on single rows and columns; level-3
//! computations (blocked matrix multiply, blocked elimination) want
//! `b`-wide *panels* so that one tree of start-ups carries `b` lines.
//! These are the natural extension of `extract_replicated` — the same
//! communication structure, wider payloads — and the building block of
//! [`panel_gemm`], the local `C += A_panel * B_panel` kernel.

use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::route::{route_blocks, Traffic};
use vmp_hypercube::slab::NodeSlab;

use crate::elem::{Numeric, Scalar};
use crate::matrix::DistMatrix;

/// A replicated column panel: columns `[t0, t0+width)` of a matrix, held
/// at every node as a row-major `local_rows x width` slab aligned with
/// the node's local rows.
#[derive(Debug, Clone)]
pub struct ColPanel<T> {
    /// First global column of the panel.
    pub t0: usize,
    /// Panel width.
    pub width: usize,
    slabs: NodeSlab<T>,
}

impl<T: Scalar> ColPanel<T> {
    /// The node's slab (row-major `local_rows x width`).
    #[must_use]
    pub fn slab(&self, node: usize) -> &[T] {
        &self.slabs[node]
    }
}

/// A replicated row panel: rows `[t0, t0+width)`, held at every node as
/// a row-major `width x local_cols` slab aligned with local columns.
#[derive(Debug, Clone)]
pub struct RowPanel<T> {
    /// First global row of the panel.
    pub t0: usize,
    /// Panel height.
    pub width: usize,
    slabs: NodeSlab<T>,
}

impl<T: Scalar> RowPanel<T> {
    /// The node's slab (row-major `width x local_cols`).
    #[must_use]
    pub fn slab(&self, node: usize) -> &[T] {
        &self.slabs[node]
    }
}

/// Extract columns `[t0, t0+width)` of `m`, replicated across grid
/// columns: one blocked routed fan-out carrying the whole panel.
///
/// # Panics
/// Panics if the column range exceeds the matrix.
pub fn extract_col_panel_replicated<T: Numeric>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    t0: usize,
    width: usize,
) -> ColPanel<T> {
    let layout = m.layout().clone();
    assert!(t0 + width <= layout.shape().cols, "column panel out of range");
    let grid = layout.grid().clone();
    let p = grid.p();
    let mut traffic = Traffic::new(p);
    let mut max_packed = 0usize;
    for dt in 0..width {
        let j = t0 + dt;
        let gc = layout.cols().owner(j);
        let lj = layout.cols().local_index(j);
        for gr in 0..grid.pr() {
            let src = grid.node_at(gr, gc);
            let (lr, lc) = layout.local_shape(src);
            let chunk: Vec<T> = (0..lr).map(|li| m.locals()[src][li * lc + lj]).collect();
            max_packed = max_packed.max(chunk.len() * width);
            for dst_gc in 0..grid.pc() {
                let dst = grid.node_at(gr, dst_gc);
                traffic.post(src, dst, dt as u64, chunk.iter().copied());
            }
        }
    }
    hc.charge_moves(max_packed);
    route_blocks(hc, &mut traffic);
    let slabs = NodeSlab::build(p, layout.shape().rows * grid.pc() * width, |node, buf| {
        let start = buf.len();
        buf.resize(start + layout.local_shape(node).0 * width, T::ZERO);
        let slab = &mut buf[start..];
        for (dt, column) in traffic.inbox(node) {
            for (li, &v) in column.iter().enumerate() {
                slab[li * width + dt as usize] = v;
            }
        }
    });
    ColPanel { t0, width, slabs }
}

/// Extract rows `[t0, t0+width)` of `m`, replicated across grid rows.
///
/// # Panics
/// Panics if the row range exceeds the matrix.
pub fn extract_row_panel_replicated<T: Numeric>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    t0: usize,
    width: usize,
) -> RowPanel<T> {
    let layout = m.layout().clone();
    assert!(t0 + width <= layout.shape().rows, "row panel out of range");
    let grid = layout.grid().clone();
    let p = grid.p();
    let mut traffic = Traffic::new(p);
    let mut max_packed = 0usize;
    for dt in 0..width {
        let i = t0 + dt;
        let gr = layout.rows().owner(i);
        let li = layout.rows().local_index(i);
        for gc in 0..grid.pc() {
            let src = grid.node_at(gr, gc);
            let lc = layout.local_shape(src).1;
            let chunk: Vec<T> = m.locals()[src][li * lc..(li + 1) * lc].to_vec();
            max_packed = max_packed.max(chunk.len() * width);
            for dst_gr in 0..grid.pr() {
                let dst = grid.node_at(dst_gr, gc);
                traffic.post(src, dst, dt as u64, chunk.iter().copied());
            }
        }
    }
    hc.charge_moves(max_packed);
    route_blocks(hc, &mut traffic);
    let slabs = NodeSlab::build(p, width * layout.shape().cols * grid.pr(), |node, buf| {
        let lc = layout.local_shape(node).1;
        let start = buf.len();
        buf.resize(start + width * lc, T::ZERO);
        let slab = &mut buf[start..];
        for (dt, row) in traffic.inbox(node) {
            let dt = dt as usize;
            slab[dt * lc..(dt + 1) * lc].copy_from_slice(row);
        }
    });
    RowPanel { t0, width, slabs }
}

/// Local blocked GEMM: `c += col_panel * row_panel` at every node. Both
/// panels must come from matrices whose row/column distributions match
/// `c`'s — which [`extract_col_panel_replicated`] /
/// [`extract_row_panel_replicated`] guarantee when the operands share a
/// grid and distribution rules.
///
/// # Panics
/// Panics if the panel widths differ or slab shapes do not match `c`'s
/// local blocks.
pub fn panel_gemm<T: Numeric>(
    hc: &mut Hypercube,
    c: &mut DistMatrix<T>,
    col_panel: &ColPanel<T>,
    row_panel: &RowPanel<T>,
) {
    assert_eq!(col_panel.width, row_panel.width, "panel widths must agree");
    let width = col_panel.width;
    let layout = c.layout().clone();
    let mut critical = 0usize;
    for node in 0..layout.grid().p() {
        let (lr, lc) = layout.local_shape(node);
        let a_slab = col_panel.slab(node);
        let b_slab = row_panel.slab(node);
        assert_eq!(a_slab.len(), lr * width, "column-panel slab shape at node {node}");
        assert_eq!(b_slab.len(), width * lc, "row-panel slab shape at node {node}");
        critical = critical.max(lr * lc * width);
    }
    c.locals_mut().for_each_seg_mut(|node, buf| {
        let (lr, lc) = layout.local_shape(node);
        let a_slab = col_panel.slab(node);
        let b_slab = row_panel.slab(node);
        for li in 0..lr {
            for t in 0..width {
                let aval = a_slab[li * width + t];
                let brow = &b_slab[t * lc..(t + 1) * lc];
                let crow = &mut buf[li * lc..(li + 1) * lc];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv = *cv + aval * bv;
                }
            }
        }
    });
    hc.charge_flops(2 * critical);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Dist, MatShape, MatrixLayout, ProcGrid};

    fn setup(rows: usize, cols: usize, dim: u32) -> (Hypercube, DistMatrix<f64>) {
        let layout =
            MatrixLayout::cyclic(MatShape::new(rows, cols), ProcGrid::square(Cube::new(dim)));
        let m = DistMatrix::from_fn(layout, |i, j| (i * 100 + j) as f64);
        (Hypercube::new(dim, CostModel::cm2()), m)
    }

    #[test]
    fn col_panel_contains_the_columns() {
        let (mut hc, m) = setup(9, 11, 4);
        let panel = extract_col_panel_replicated(&mut hc, &m, 3, 4);
        let layout = m.layout();
        for node in 0..layout.grid().p() {
            let (lr, _) = layout.local_shape(node);
            let slab = panel.slab(node);
            assert_eq!(slab.len(), lr * 4);
            let (gr, _) = layout.grid().grid_coords(node);
            for li in 0..lr {
                let i = layout.rows().global_index(gr, li);
                for dt in 0..4 {
                    assert_eq!(slab[li * 4 + dt], (i * 100 + 3 + dt) as f64, "node {node}");
                }
            }
        }
    }

    #[test]
    fn row_panel_contains_the_rows() {
        let (mut hc, m) = setup(10, 7, 4);
        let panel = extract_row_panel_replicated(&mut hc, &m, 5, 3);
        let layout = m.layout();
        for node in 0..layout.grid().p() {
            let (_, lc) = layout.local_shape(node);
            let slab = panel.slab(node);
            assert_eq!(slab.len(), 3 * lc);
            let (_, gc) = layout.grid().grid_coords(node);
            for dt in 0..3 {
                for lj in 0..lc {
                    let j = layout.cols().global_index(gc, lj);
                    assert_eq!(slab[dt * lc + lj], ((5 + dt) * 100 + j) as f64);
                }
            }
        }
    }

    #[test]
    fn panel_gemm_accumulates_outer_products() {
        // c += A[:, 2..5] * B[2..5, :] checked against the dense formula.
        let (mut hc, a) = setup(6, 8, 2);
        let b_layout = MatrixLayout::cyclic(MatShape::new(8, 5), ProcGrid::square(Cube::new(2)));
        let b = DistMatrix::from_fn(b_layout, |i, j| (i + 2 * j) as f64);
        let c_layout = MatrixLayout::new(
            MatShape::new(6, 5),
            a.layout().grid().clone(),
            Dist::Cyclic,
            Dist::Cyclic,
        );
        let mut c = DistMatrix::constant(c_layout, 0.0f64);
        let cp = extract_col_panel_replicated(&mut hc, &a, 2, 3);
        let rp = extract_row_panel_replicated(&mut hc, &b, 2, 3);
        panel_gemm(&mut hc, &mut c, &cp, &rp);
        for i in 0..6 {
            for j in 0..5 {
                let expect: f64 = (2..5).map(|t| a.get(i, t) * b.get(t, j)).sum();
                assert!((c.get(i, j) - expect).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn width_one_panel_matches_extract_replicated() {
        use crate::primitives::extract_replicated;
        use vmp_layout::Axis;
        let (mut hc, m) = setup(8, 8, 4);
        let panel = extract_col_panel_replicated(&mut hc, &m, 5, 1);
        let col = extract_replicated(&mut hc, &m, Axis::Col, 5);
        for node in 0..m.layout().grid().p() {
            assert_eq!(panel.slab(node), &col_chunk(&col, node)[..]);
        }
    }

    fn col_chunk(v: &crate::vector::DistVector<f64>, node: usize) -> Vec<f64> {
        // Reconstruct the node's chunk via the public API.
        let layout = v.layout();
        let part = layout.part_of(node);
        (0..layout.local_len(node))
            .map(|slot| v.get(layout.dist().global_index(part, slot)))
            .collect()
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_panel_panics() {
        let (mut hc, m) = setup(4, 4, 2);
        let _ = extract_col_panel_replicated(&mut hc, &m, 2, 3);
    }
}
