//! NEWS-style matrix shifts on the Gray-coded embedding.
//!
//! The Connection Machine's other communication regime (besides the
//! router) was the NEWS grid: nearest-neighbour shifts on the embedded
//! mesh. Because the grid is Gray-coded, mesh neighbours are cube
//! neighbours (dilation 1), so shifting a **block-distributed** matrix
//! by one position moves only each block's boundary line to an adjacent
//! node — one cheap blocked superstep. (Cyclic layouts relocate every
//! element; the shift still works, it is just priced accordingly. This
//! is the block layout's counterpart to cyclic's elimination-balance
//! advantage.)
//!
//! Shifts compose with the elementwise combinators into stencil
//! relaxation — see `vmp_algos::stencil` for Jacobi/Poisson.

use vmp_hypercube::machine::Hypercube;
use vmp_layout::Axis;

use crate::elem::Scalar;
use crate::matrix::DistMatrix;
use crate::remap;

/// Boundary handling for a shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Boundary<T> {
    /// Torus: indices wrap modulo the matrix extent.
    Wrap,
    /// The vacated line is filled with a constant (Dirichlet-style).
    Fill(T),
}

/// Shift the matrix contents by `offset` positions along `axis`:
/// for `Axis::Col` (a shift *of rows*, i.e. vertically),
/// `out[i][j] = m[i - offset][j]`; for `Axis::Row` (horizontally),
/// `out[i][j] = m[i][j - offset]`. Out-of-range sources follow
/// `boundary`.
///
/// The axis convention matches the primitives: `Axis::Col` shifts move
/// data between *rows* (column vectors slide), `Axis::Row` between
/// columns.
pub fn shift<T: Scalar>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    axis: Axis,
    offset: isize,
    boundary: Boundary<T>,
) -> DistMatrix<T> {
    // A shift of rows slides column vectors, and the other way round.
    let extent = m.shape().vector_len(axis) as isize;
    if extent == 0 || offset == 0 {
        return m.clone();
    }
    let off = offset.rem_euclid(extent);

    // Torus shift as a bijective remap (same layout): every element moves
    // `off` places along the shifted direction.
    let step = move |x: usize| (x as isize + off).rem_euclid(extent) as usize;
    let mut out = remap::remap_with(hc, m, *m.layout(), move |i, j| match axis {
        Axis::Col => (step(i), j),
        Axis::Row => (i, step(j)),
    });

    // Fill boundary: a masked elementwise pass (local; one flop per
    // element) writes the constant into the vacated lines.
    if let Boundary::Fill(v) = boundary {
        let (extent, k) = (extent as usize, offset.unsigned_abs().min(extent as usize));
        let vacated = if offset > 0 { 0..k } else { extent - k..extent };
        out.map_inplace(hc, move |i, j, x| {
            let line = match axis {
                Axis::Col => i,
                Axis::Row => j,
            };
            if vacated.contains(&line) {
                v
            } else {
                x
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Dist, MatShape, MatrixLayout, ProcGrid};

    fn setup(n: usize, kind: Dist) -> (Hypercube, DistMatrix<i64>) {
        let layout =
            MatrixLayout::new(MatShape::new(n, n), ProcGrid::new(Cube::new(4), 2), kind, kind);
        let m = DistMatrix::from_fn(layout, |i, j| (i * 100 + j) as i64);
        (Hypercube::new(4, CostModel::unit()), m)
    }

    #[test]
    fn wrap_shift_down_moves_rows() {
        let (mut hc, m) = setup(8, Dist::Block);
        let s = shift(&mut hc, &m, Axis::Col, 1, Boundary::Wrap);
        s.assert_consistent();
        for i in 0..8 {
            for j in 0..8 {
                let src = (i + 8 - 1) % 8;
                assert_eq!(s.get(i, j), (src * 100 + j) as i64, "({i},{j})");
            }
        }
    }

    #[test]
    fn wrap_shift_left_moves_cols() {
        let (mut hc, m) = setup(8, Dist::Block);
        let s = shift(&mut hc, &m, Axis::Row, -2, Boundary::Wrap);
        for i in 0..8 {
            for j in 0..8 {
                let src = (j + 2) % 8;
                assert_eq!(s.get(i, j), (i * 100 + src) as i64);
            }
        }
    }

    #[test]
    fn fill_shift_inserts_constant_boundary() {
        let (mut hc, m) = setup(6, Dist::Block);
        let down = shift(&mut hc, &m, Axis::Col, 1, Boundary::Fill(-7));
        for j in 0..6 {
            assert_eq!(down.get(0, j), -7, "vacated top row filled");
        }
        for i in 1..6 {
            for j in 0..6 {
                assert_eq!(down.get(i, j), ((i - 1) * 100 + j) as i64);
            }
        }
        let up = shift(&mut hc, &m, Axis::Col, -1, Boundary::Fill(0));
        for j in 0..6 {
            assert_eq!(up.get(5, j), 0, "vacated bottom row filled");
        }
        assert_eq!(up.get(0, 3), 103);
    }

    #[test]
    fn opposite_shifts_cancel_under_wrap() {
        let (mut hc, m) = setup(7, Dist::Cyclic);
        let there = shift(&mut hc, &m, Axis::Row, 3, Boundary::Wrap);
        let back = shift(&mut hc, &there, Axis::Row, -3, Boundary::Wrap);
        assert_eq!(back.to_dense(), m.to_dense());
    }

    #[test]
    fn full_extent_shift_is_identity_under_wrap() {
        let (mut hc, m) = setup(5, Dist::Block);
        let s = shift(&mut hc, &m, Axis::Col, 5, Boundary::Wrap);
        assert_eq!(s.to_dense(), m.to_dense());
        let s2 = shift(&mut hc, &m, Axis::Col, -10, Boundary::Wrap);
        assert_eq!(s2.to_dense(), m.to_dense());
    }

    #[test]
    fn zero_shift_is_free() {
        let (mut hc, m) = setup(6, Dist::Block);
        let s = shift(&mut hc, &m, Axis::Row, 0, Boundary::Wrap);
        assert_eq!(s.to_dense(), m.to_dense());
        assert_eq!(hc.elapsed_us(), 0.0);
    }

    #[test]
    fn block_layout_shifts_only_boundary_lines() {
        // On a block layout, a one-step shift crosses node boundaries
        // only at block edges: the per-channel load is one block line,
        // not a whole block.
        let n = 16usize;
        let (mut hc, m) = setup(n, Dist::Block);
        let _ = shift(&mut hc, &m, Axis::Col, 1, Boundary::Wrap);
        let (lr, lc) = m.layout().local_shape(0);
        assert!(
            hc.counters().max_channel_load <= (lc * 2) as u64,
            "boundary line only: load {} vs block {}x{}",
            hc.counters().max_channel_load,
            lr,
            lc
        );

        // Cyclic relocates everything: channel load is a whole block.
        let (mut hc2, m2) = setup(n, Dist::Cyclic);
        let _ = shift(&mut hc2, &m2, Axis::Col, 1, Boundary::Wrap);
        assert!(hc2.counters().max_channel_load > hc.counters().max_channel_load);
    }
}
