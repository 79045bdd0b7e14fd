//! Panel (multi-row / multi-column) extensions of `extract`.
//!
//! The four primitives operate on single rows and columns; level-3
//! computations (blocked matrix multiply, blocked elimination) want
//! `b`-wide *panels* so that one tree of start-ups carries `b` lines.
//! These are the natural extension of `extract_replicated` — the same
//! communication structure, wider payloads — and the building block of
//! [`panel_gemm`], the local `C += A_panel * B_panel` kernel.

use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::route::charge_blocks;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::Axis;

use super::{line_and_slot, local_line};
use crate::elem::{Numeric, Scalar};
use crate::matrix::DistMatrix;

/// A replicated panel: rows (`Axis::Row`) or columns (`Axis::Col`)
/// `[t0, t0+width)` of a matrix, held at every node line-major — line
/// `t` of the panel is the node's `len`-element chunk of row (column)
/// `t0 + t`, at `slab[t * len..(t + 1) * len]`, with `len` the node's
/// local column (row) count.
#[derive(Debug, Clone)]
pub struct Panel<T> {
    /// Which lines the panel holds: rows for `Axis::Row`, columns for
    /// `Axis::Col`.
    pub axis: Axis,
    /// First global row (column) of the panel.
    pub t0: usize,
    /// Panel width: the number of lines.
    pub width: usize,
    slabs: NodeSlab<T>,
}

impl<T: Scalar> Panel<T> {
    /// The node's slab (line-major `width x len`).
    #[must_use]
    pub fn slab(&self, node: usize) -> &[T] {
        &self.slabs[node]
    }
}

/// Extract rows (`Axis::Row`) or columns (`Axis::Col`) `[t0, t0+width)`
/// of `m`, replicated across the grid lines: one blocked routed fan-out
/// carrying the whole panel.
///
/// # Panics
/// Panics if the range exceeds the matrix.
pub fn extract_panel_replicated<T: Scalar>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    t0: usize,
    width: usize,
) -> Panel<T> {
    let layout = m.layout();
    let count = layout.shape().vector_count(axis);
    assert!(t0 + width <= count, "{axis:?} panel out of range 0..{count}");
    let grid = layout.grid();
    let (lines, parts) = (grid.lines(axis).0, grid.lines(axis.transpose()).0);
    // Line `dt` of the panel at every node of part `part`: the chunk its
    // owner `src` holds.
    let chunk = |dt: usize, part: usize| {
        let (line, slot) = line_and_slot(layout, axis, t0 + dt);
        let src = grid.node_on(axis, line, part);
        (src, local_line(m.locals()[src].iter(), axis, slot, layout.local_shape(src)))
    };
    // Each owner sends its chunk of each panel line to every line, its
    // own included.
    let mut blocks = Vec::with_capacity(width * parts * lines);
    let mut max_packed = 0usize;
    for dt in 0..width {
        for part in 0..parts {
            let (src, line) = chunk(dt, part);
            max_packed = max_packed.max(line.len() * width);
            let dsts = (0..lines).map(|dst_line| grid.node_on(axis, dst_line, part));
            blocks.extend(dsts.map(|dst| (src, dst, line.len())));
        }
    }
    hc.charge_moves(max_packed);
    charge_blocks(hc, blocks);
    let slabs = NodeSlab::build(grid.p(), max_packed * grid.p(), |node, buf| {
        let part = grid.line_and_part(axis, node).1;
        for dt in 0..width {
            buf.extend(chunk(dt, part).1.copied());
        }
    });
    Panel { axis, t0, width, slabs }
}

/// Local blocked GEMM: `c += col_panel * row_panel` at every node. Both
/// panels must come from matrices whose row/column distributions match
/// `c`'s — which [`extract_panel_replicated`] guarantees when the
/// operands share a grid and distribution rules.
///
/// # Panics
/// Panics if the panels are not a column and a row panel of one width,
/// or their slab shapes do not match `c`'s local blocks.
pub fn panel_gemm<T: Numeric>(
    hc: &mut Hypercube,
    c: &mut DistMatrix<T>,
    col_panel: &Panel<T>,
    row_panel: &Panel<T>,
) {
    assert_eq!((col_panel.axis, row_panel.axis), (Axis::Col, Axis::Row), "panel axes");
    assert_eq!(col_panel.width, row_panel.width, "panel widths must agree");
    let width = col_panel.width;
    let layout = *c.layout();
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
                let aval = a_slab[t * lr + li];
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
        let panel = extract_panel_replicated(&mut hc, &m, Axis::Col, 3, 4);
        let layout = m.layout();
        for node in 0..layout.grid().p() {
            let (lr, _) = layout.local_shape(node);
            let slab = panel.slab(node);
            assert_eq!(slab.len(), lr * 4);
            let (gr, _) = layout.grid().grid_coords(node);
            for li in 0..lr {
                let i = layout.rows().global_index(gr, li);
                for dt in 0..4 {
                    assert_eq!(slab[dt * lr + li], (i * 100 + 3 + dt) as f64, "node {node}");
                }
            }
        }
    }

    #[test]
    fn row_panel_contains_the_rows() {
        let (mut hc, m) = setup(10, 7, 4);
        let panel = extract_panel_replicated(&mut hc, &m, Axis::Row, 5, 3);
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
        let c_layout =
            MatrixLayout::new(MatShape::new(6, 5), a.layout().grid(), Dist::Cyclic, Dist::Cyclic);
        let mut c = DistMatrix::constant(c_layout, 0.0f64);
        let cp = extract_panel_replicated(&mut hc, &a, Axis::Col, 2, 3);
        let rp = extract_panel_replicated(&mut hc, &b, Axis::Row, 2, 3);
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
        let (mut hc, m) = setup(8, 8, 4);
        let panel = extract_panel_replicated(&mut hc, &m, Axis::Col, 5, 1);
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
        let _ = extract_panel_replicated(&mut hc, &m, Axis::Col, 2, 3);
    }
}
