//! Embedding changes — *"the primitives may indicate a change from one
//! embedding to another"*.
//!
//! `extract` returns a vector concentrated on the grid line where the row
//! physically lives; `distribute` and the elementwise combinators want it
//! replicated; a vector leaving the matrix world wants the balanced
//! linear embedding; a transposed algorithm wants the whole matrix
//! re-embedded. This module implements those moves, each charged with
//! its true communication structure:
//!
//! * [`replicate`] — concentrated → replicated: a `d`-step tree broadcast;
//! * [`concentrate`] — replicated → concentrated: free (drop copies), or
//!   a blocked routed move between two grid lines;
//! * [`remap_vector`] — the general vector embedding change (any aligned
//!   or linear source to any aligned or linear target, including axis
//!   flips), via blocked dimension-ordered routing to the target's
//!   primary holders plus a final broadcast if the target is replicated;
//! * [`transpose`] / [`redistribute`] — whole-matrix re-embeddings.
//!
//! A vector stores each part once ([`DistVector`]), so `replicate` and
//! `concentrate` move no data on the host: the machine is charged for
//! the broadcast or the routed move, and the layout changes.

use vmp_hypercube::collective;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::route::charge_blocks;
use vmp_hypercube::topology::NodeId;
use vmp_layout::{Axis, MatrixLayout, Placement, VecEmbedding, VectorLayout};

use crate::elem::Scalar;
use crate::matrix::DistMatrix;
use crate::vector::DistVector;

/// Replicate an axis-aligned vector across its orthogonal grid dims.
/// Already-replicated vectors are returned unchanged (no charge).
///
/// # Panics
/// Panics on linear vectors.
pub fn replicate<T: Scalar>(hc: &mut Hypercube, v: &DistVector<T>) -> DistVector<T> {
    replicate_owned(hc, v.clone())
}

/// [`replicate`] of a vector the caller gives up: the broadcast is
/// charged from the parts' lengths and the parts stay where they are.
pub(crate) fn replicate_owned<T: Scalar>(hc: &mut Hypercube, v: DistVector<T>) -> DistVector<T> {
    let (axis, placement) = aligned(v.layout(), "replicate");
    if let Placement::Concentrated(line) = placement {
        let layout = v.layout();
        let grid = layout.grid();
        let (dims, root) = (grid.lines(axis).1, grid.line_coord(axis, line));
        let (max, n) = (layout.dist().max_count(), layout.n() as u64);
        collective::charge_broadcast(hc, dims, root, max, n);
    }
    let replicated = v.layout().with_placement(Placement::Replicated);
    v.relabel(replicated)
}

/// Concentrate an axis-aligned vector onto grid line `line`. From a
/// replicated embedding this is free — the copies are simply dropped.
/// From another concentrated line it is one blocked routed move, charged
/// through [`charge_blocks`] while the parts stay where they are.
///
/// # Panics
/// Panics on linear vectors.
pub fn concentrate<T: Scalar>(hc: &mut Hypercube, v: &DistVector<T>, line: usize) -> DistVector<T> {
    if let (_, Placement::Concentrated(src)) = aligned(v.layout(), "concentrate") {
        if src != line {
            charge_line_move(hc, v.layout(), src, line);
        }
    }
    v.clone().relabel(v.layout().with_placement(Placement::Concentrated(line)))
}

/// Charge the routed move of an aligned vector laid out as `layout` from
/// grid line `from` to line `to`: each part as one block from its node on
/// `from` to its node on `to`, through [`charge_blocks`].
pub(crate) fn charge_line_move(hc: &mut Hypercube, layout: &VectorLayout, from: usize, to: usize) {
    let (axis, _) = aligned(layout, "a line move");
    let (grid, dist) = (layout.grid(), layout.dist());
    let blocks = (0..dist.parts()).map(|part| {
        (grid.node_on(axis, from, part), grid.node_on(axis, to, part), dist.count(part))
    });
    charge_blocks(hc, blocks);
}

/// The axis and placement of an aligned layout; `what` names the caller
/// in the panic on a linear one.
fn aligned(layout: &VectorLayout, what: &str) -> (Axis, Placement) {
    match layout.embedding() {
        VecEmbedding::Aligned { axis, placement } => (*axis, *placement),
        VecEmbedding::Linear => panic!("{what} applies to axis-aligned vectors only"),
    }
}

/// Change a vector's embedding to `new_layout` (same grid, same length;
/// anything else about the embedding — axis, placement, chunking rule,
/// linear vs aligned — may differ).
///
/// Elements are routed in blocks from the old embedding's primary holders
/// to the new embedding's primary holders (dimension-ordered, so at most
/// `d` blocked supersteps), then broadcast across the orthogonal dims if
/// the target is replicated. No per-element indices travel: each message
/// carries a run of consecutive slots of its destination chunk.
pub fn remap_vector<T: Scalar>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    new_layout: VectorLayout,
) -> DistVector<T> {
    assert_eq!(v.n(), new_layout.n(), "length mismatch");
    // The receivers' unpack: one pass over the new chunk.
    hc.charge_moves(new_layout.dist().max_count());
    move_elements(hc, v, new_layout, Some, None)
}

/// Send element `i` of `v` to position `dest(i)` of a vector laid out as
/// `layout` on the same cube, and fill every position no element reaches
/// with `fill`: the one move behind [`remap_vector`] and
/// [`crate::scan::route_permutation`]. The result is placed on the host;
/// the machine is charged for one block from each primary holder of `v`
/// per run of consecutive slots of a target primary holder's chunk. A
/// replicated target is then broadcast from its primary line. A filled
/// position never leaves its holder, so it costs nothing.
///
/// # Panics
/// Panics if a position is reached twice, or not at all with `fill`
/// `None`.
pub(crate) fn move_elements<T: Scalar>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    layout: VectorLayout,
    dest: impl Fn(usize) -> Option<usize>,
    fill: Option<T>,
) -> DistVector<T> {
    let old = v.layout();
    assert_eq!(old.grid().cube(), layout.grid().cube(), "grid cube mismatch");
    let mut moved = vec![None; layout.n()];
    let (mut blocks, mut staged) = (Vec::new(), Vec::new());
    for (part, chunk) in v.chunks().iter_segs().enumerate() {
        for (slot, &x) in chunk.iter().enumerate() {
            let Some(j) = dest(old.dist().global_index(part, slot)) else { continue };
            assert!(moved[j].replace(x).is_none(), "position {j} is reached twice");
            staged.push((layout.primary_holder(j), layout.dist().local_index(j)));
        }
        push_runs(&mut blocks, old.primary_node(part), &mut staged);
    }
    hc.charge_moves(old.dist().max_count());
    charge_blocks(hc, blocks);

    let replicated = matches!(
        layout.embedding(),
        VecEmbedding::Aligned { placement: Placement::Replicated, .. }
    );
    let primary =
        if replicated { layout.with_placement(Placement::Concentrated(0)) } else { layout };
    let moved = DistVector::from_fn(primary, |j| match (moved[j], fill) {
        (Some(x), _) | (None, Some(x)) => x,
        (None, None) => panic!("position {j} is never reached and there is no fill"),
    });
    if replicated {
        replicate_owned(hc, moved)
    } else {
        moved
    }
}

/// Append to `blocks` one `(src, dst, len)` block per run of consecutive
/// slots of one destination chunk among the `staged` `(dst, slot)`
/// moves from `src`. Leaves `staged` empty.
fn push_runs(
    blocks: &mut Vec<(NodeId, NodeId, usize)>,
    src: NodeId,
    staged: &mut Vec<(NodeId, usize)>,
) {
    staged.sort_unstable();
    let runs = staged.chunk_by(|a, b| a.0 == b.0 && b.1 == a.1 + 1);
    blocks.extend(runs.map(|run| (src, run[0].0, run.len())));
    staged.clear();
}

/// Transpose a matrix: the result has the transposed shape on the
/// transposed grid (grid rows and columns swap roles), with
/// `out[i][j] = m[j][i]`. One blocked routed phase (at most `d`
/// supersteps) regardless of matrix size — the dimension-permutation view
/// of transposition from Johnsson & Ho's transposition report.
pub fn transpose<T: Scalar>(hc: &mut Hypercube, m: &DistMatrix<T>) -> DistMatrix<T> {
    let new_layout = m.layout().transposed();
    remap_with(hc, m, new_layout, |i, j| (j, i))
}

/// Re-embed a matrix into `new_layout` (same shape, same cube; the grid
/// split and the distribution rules may differ). Contents are preserved:
/// `out[i][j] = m[i][j]`.
pub fn redistribute<T: Scalar>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    new_layout: MatrixLayout,
) -> DistMatrix<T> {
    assert_eq!(m.shape(), new_layout.shape(), "shape mismatch");
    remap_with(hc, m, new_layout, |i, j| (i, j))
}

/// General bijective matrix re-embedding: `out[fwd(i, j)] = m[i][j]`
/// under `new_layout`. `fwd` must be a bijection onto the new shape's
/// index pairs — transpose, redistribution, and torus shifts
/// ([`crate::shift`]) are all instances. One blocked routed phase: one
/// block from each node per run of consecutive local offsets of one
/// destination node.
///
/// # Panics
/// Panics if `fwd` is not a bijection: some new element is reached
/// twice or not at all, or lies outside the new shape.
pub fn remap_with<T: Scalar>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    new_layout: MatrixLayout,
    fwd: impl Fn(usize, usize) -> (usize, usize),
) -> DistMatrix<T> {
    let old = m.layout();
    assert_eq!(old.grid().cube(), new_layout.grid().cube(), "grid cube mismatch");
    let (p, shape) = (old.grid().p(), new_layout.shape());
    let mut moved: Vec<Option<T>> = vec![None; shape.elements()];
    let (mut blocks, mut staged) = (Vec::new(), Vec::new());
    for src in 0..p {
        let buf = &m.locals()[src];
        for (i, j, off) in old.local_elements(src) {
            let (ni, nj) = fwd(i, j);
            assert!(ni < shape.rows && nj < shape.cols, "({i}, {j}) maps outside {shape:?}");
            let at = ni * shape.cols + nj;
            assert!(moved[at].replace(buf[off]).is_none(), "({ni}, {nj}) is reached twice");
            staged.push((new_layout.owner(ni, nj), new_layout.local_offset(ni, nj)));
        }
        push_runs(&mut blocks, src, &mut staged);
    }
    // Pack at the senders, unpack at the receivers.
    hc.charge_moves(old.max_local_len());
    hc.charge_moves(new_layout.max_local_len());
    charge_blocks(hc, blocks);

    DistMatrix::from_fn(new_layout, |i, j| match moved[i * shape.cols + j] {
        Some(x) => x,
        None => panic!("({i}, {j}) is never reached"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Axis, Dist, MatShape, ProcGrid};

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    fn grid(dim: u32, dr: u32) -> ProcGrid {
        ProcGrid::new(Cube::new(dim), dr)
    }

    #[test]
    fn replicate_then_concentrate_roundtrips() {
        let mut hc = machine(4);
        let vl = VectorLayout::aligned(
            9,
            grid(4, 2),
            Axis::Row,
            Placement::Concentrated(1),
            Dist::Cyclic,
        );
        let v = DistVector::from_fn(vl, |i| i as f64 * 2.0);
        let r = replicate(&mut hc, &v);
        r.assert_consistent();
        assert_eq!(r.layout().stored_elements(), 9 * 4);
        assert_eq!(r.to_dense(), v.to_dense());
        let c = concentrate(&mut hc, &r, 1);
        c.assert_consistent();
        assert_eq!(c.to_dense(), v.to_dense());
        assert_eq!(c.layout(), v.layout());
    }

    #[test]
    fn concentrate_between_lines_routes() {
        let mut hc = machine(4);
        let vl = VectorLayout::aligned(
            8,
            grid(4, 2),
            Axis::Col,
            Placement::Concentrated(0),
            Dist::Block,
        );
        let v = DistVector::from_fn(vl, |i| i as i64);
        let moved = concentrate(&mut hc, &v, 3);
        moved.assert_consistent();
        assert_eq!(moved.to_dense(), v.to_dense());
        assert!(hc.counters().message_steps >= 1);
    }

    #[test]
    fn remap_aligned_to_linear_and_back() {
        let mut hc = machine(4);
        let g = grid(4, 2);
        let vl = VectorLayout::aligned(13, g, Axis::Row, Placement::Replicated, Dist::Cyclic);
        let v = DistVector::from_fn(vl, |i| (i * i) as f64);
        let lin = remap_vector(&mut hc, &v, VectorLayout::linear(13, g, Dist::Block));
        lin.assert_consistent();
        assert_eq!(lin.to_dense(), v.to_dense());
        let back = remap_vector(
            &mut hc,
            &lin,
            VectorLayout::aligned(13, g, Axis::Row, Placement::Replicated, Dist::Cyclic),
        );
        back.assert_consistent();
        assert_eq!(back.to_dense(), v.to_dense());
    }

    #[test]
    fn remap_axis_flip() {
        // Row-aligned -> Col-aligned: the embedding change a transposed
        // algorithm asks for.
        let mut hc = machine(4);
        let g = grid(4, 2);
        let vl = VectorLayout::aligned(10, g, Axis::Row, Placement::Concentrated(2), Dist::Block);
        let v = DistVector::from_fn(vl, |i| i as f64 - 4.5);
        let flipped = remap_vector(
            &mut hc,
            &v,
            VectorLayout::aligned(10, g, Axis::Col, Placement::Replicated, Dist::Cyclic),
        );
        flipped.assert_consistent();
        assert_eq!(flipped.to_dense(), v.to_dense());
    }

    #[test]
    fn remap_identity_is_cheap() {
        let mut hc = machine(4);
        let g = grid(4, 2);
        let vl = VectorLayout::linear(16, g, Dist::Block);
        let v = DistVector::from_fn(vl, |i| i as i64);
        let w = remap_vector(&mut hc, &v, vl);
        assert_eq!(w.to_dense(), v.to_dense());
        assert_eq!(hc.counters().message_steps, 0, "nothing moves between nodes");
    }

    #[test]
    fn transpose_transposes() {
        let mut hc = machine(4);
        let layout = MatrixLayout::new(MatShape::new(6, 10), grid(4, 2), Dist::Cyclic, Dist::Block);
        let m = DistMatrix::from_fn(layout, |i, j| (i * 100 + j) as f64);
        let t = transpose(&mut hc, &m);
        t.assert_consistent();
        assert_eq!(t.shape(), MatShape::new(10, 6));
        for i in 0..10 {
            for j in 0..6 {
                assert_eq!(t.get(i, j), (j * 100 + i) as f64);
            }
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let mut hc = machine(5);
        let layout = MatrixLayout::new(MatShape::new(7, 9), grid(5, 2), Dist::Cyclic, Dist::Cyclic);
        let m = DistMatrix::from_fn(layout, |i, j| (i as f64).sin() + (j as f64).cos());
        let t = transpose(&mut hc, &m);
        let tt = transpose(&mut hc, &t);
        assert_eq!(tt.shape(), m.shape());
        assert_eq!(tt.to_dense(), m.to_dense());
    }

    #[test]
    fn redistribute_changes_dist_rule() {
        let mut hc = machine(4);
        let g = grid(4, 2);
        let block = MatrixLayout::new(MatShape::new(9, 9), g, Dist::Block, Dist::Block);
        let cyclic = MatrixLayout::new(MatShape::new(9, 9), g, Dist::Cyclic, Dist::Cyclic);
        let m = DistMatrix::from_fn(block, |i, j| (i * 9 + j) as i64);
        let r = redistribute(&mut hc, &m, cyclic);
        r.assert_consistent();
        assert_eq!(r.to_dense(), m.to_dense());
        assert!(hc.counters().message_steps >= 1);
    }

    #[test]
    #[should_panic(expected = "(0, 0) is reached twice")]
    fn non_bijective_remap_panics() {
        let layout = MatrixLayout::cyclic(MatShape::new(4, 5), grid(2, 1));
        let m = DistMatrix::from_fn(layout, |i, j| (i * 5 + j) as i64);
        let _ = remap_with(&mut machine(2), &m, layout, |_, j| (0, j));
    }

    #[test]
    #[should_panic(expected = "maps outside")]
    fn remap_outside_the_shape_panics() {
        let layout = MatrixLayout::cyclic(MatShape::new(4, 5), grid(2, 1));
        let m = DistMatrix::from_fn(layout, |i, j| (i * 5 + j) as i64);
        let _ = remap_with(&mut machine(2), &m, layout, |i, j| (i + 1, j));
    }

    #[test]
    fn redistribute_changes_grid_shape() {
        let mut hc = machine(4);
        let wide = MatrixLayout::new(MatShape::new(8, 8), grid(4, 1), Dist::Cyclic, Dist::Cyclic);
        let tall = MatrixLayout::new(MatShape::new(8, 8), grid(4, 3), Dist::Cyclic, Dist::Cyclic);
        let m = DistMatrix::from_fn(wide, |i, j| (i * 8 + j) as f64);
        let r = redistribute(&mut hc, &m, tall);
        r.assert_consistent();
        assert_eq!(r.to_dense(), m.to_dense());
    }
}
