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

use vmp_hypercube::collective;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::route::{route_blocks, Traffic};
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{MatrixLayout, Placement, VecEmbedding, VectorLayout};

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

/// [`replicate`] of a vector the caller gives up: its own chunks are
/// broadcast in place, with no copy taken first.
pub(crate) fn replicate_owned<T: Scalar>(hc: &mut Hypercube, v: DistVector<T>) -> DistVector<T> {
    let (axis, placement) = match v.layout().embedding() {
        VecEmbedding::Aligned { axis, placement } => (*axis, *placement),
        VecEmbedding::Linear => panic!("replicate applies to axis-aligned vectors only"),
    };
    match placement {
        Placement::Replicated => v,
        Placement::Concentrated(line) => {
            let (layout, mut chunks) = v.into_parts();
            let grid = layout.grid();
            let (dims, root) = (grid.lines(axis).1, grid.line_coord(axis, line));
            collective::broadcast_slab(hc, &mut chunks, dims, root);
            DistVector::from_slab(layout.with_placement(Placement::Replicated), chunks)
        }
    }
}

/// Concentrate an axis-aligned vector onto grid line `line`. From a
/// replicated embedding this is free — the copies are simply dropped.
/// From another concentrated line it is one blocked routed move.
///
/// # Panics
/// Panics on linear vectors.
pub fn concentrate<T: Scalar>(hc: &mut Hypercube, v: &DistVector<T>, line: usize) -> DistVector<T> {
    let (axis, placement) = match v.layout().embedding() {
        VecEmbedding::Aligned { axis, placement } => (*axis, *placement),
        VecEmbedding::Linear => panic!("concentrate applies to axis-aligned vectors only"),
    };
    let new_layout = v.layout().with_placement(Placement::Concentrated(line));
    match placement {
        Placement::Concentrated(src) if src == line => v.clone(),
        Placement::Replicated => {
            // Free: keep only the target line's copies.
            let locals = NodeSlab::build(v.locals().p(), new_layout.n(), |node, buf| {
                if new_layout.holds(node) {
                    buf.extend_from_slice(&v.locals()[node]);
                }
            });
            DistVector::from_slab(new_layout, locals)
        }
        Placement::Concentrated(src_line) => {
            let grid = v.layout().grid();
            let mut traffic = Traffic::new(grid.p());
            for part in 0..grid.lines(axis.transpose()).0 {
                let (src, dst) =
                    (grid.node_on(axis, src_line, part), grid.node_on(axis, line, part));
                traffic.post(src, dst, part as u64, v.locals()[src].iter().copied());
            }
            route_blocks(hc, &mut traffic);
            let locals = NodeSlab::build(grid.p(), new_layout.n(), |node, buf| {
                for (_, payload) in traffic.inbox(node) {
                    buf.extend_from_slice(payload);
                }
            });
            DistVector::from_slab(new_layout, locals)
        }
    }
}

/// Change a vector's embedding to `new_layout` (same grid, same length;
/// anything else about the embedding — axis, placement, chunking rule,
/// linear vs aligned — may differ).
///
/// Elements are routed in blocks from the old embedding's primary holders
/// to the new embedding's primary holders (dimension-ordered, so at most
/// `d` blocked supersteps), then broadcast across the orthogonal dims if
/// the target is replicated. Delivery order is reconstructed on the
/// receiving side from the layouts — no per-element indices travel.
pub fn remap_vector<T: Scalar>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    new_layout: VectorLayout,
) -> DistVector<T> {
    let old = v.layout();
    assert_eq!(old.n(), new_layout.n(), "length mismatch");
    assert_eq!(old.grid().cube(), new_layout.grid().cube(), "grid cube mismatch");
    let p = old.grid().p();

    // Pack: every old-primary node buckets its chunk by new-primary
    // destination, in ascending global index order (= slot order).
    let mut traffic = Traffic::new(p);
    let mut max_packed = 0usize;
    for src in 0..p {
        if !old.is_primary_holder(src) {
            continue;
        }
        let part = old.part_of(src);
        let chunk = &v.locals()[src];
        max_packed = max_packed.max(chunk.len());
        // dst -> data, filled in ascending slot order.
        let mut buckets: Vec<(usize, Vec<T>)> = Vec::new();
        for (slot, &x) in chunk.iter().enumerate() {
            let i = old.dist().global_index(part, slot);
            let dst = new_layout.primary_holder(i);
            match buckets.iter_mut().find(|(d, _)| *d == dst) {
                Some((_, data)) => data.push(x),
                None => buckets.push((dst, vec![x])),
            }
        }
        for (dst, data) in buckets {
            traffic.post(src, dst, src as u64, data);
        }
    }
    hc.charge_moves(max_packed);

    route_blocks(hc, &mut traffic);

    // Unpack: each new-primary node walks its new chunk in slot order,
    // recomputes each element's old primary holder, and pulls the next
    // element from that source's block.
    let mut max_unpacked = 0usize;
    let locals = NodeSlab::build(p, new_layout.n(), |dst, chunk| {
        if !new_layout.is_primary_holder(dst) {
            return;
        }
        let part = new_layout.part_of(dst);
        let len = new_layout.dist().count(part);
        max_unpacked = max_unpacked.max(len);
        let arrived: Vec<(u64, &[T])> = traffic.inbox(dst).collect();
        let mut cursors = vec![0usize; arrived.len()];
        for slot in 0..len {
            let i = new_layout.dist().global_index(part, slot);
            let src = old.primary_holder(i) as u64;
            let bi = arrived
                .iter()
                .position(|&(tag, _)| tag == src)
                // vmplint: allow(p1) — the send phase computed the same owner arithmetic, so the block is present
                .expect("block from the predicted source");
            chunk.push(arrived[bi].1[cursors[bi]]);
            cursors[bi] += 1;
        }
    });
    hc.charge_moves(max_unpacked);
    from_primary_holders(hc, new_layout, locals)
}

/// The vector laid out as `layout` from `locals` holding data on the
/// primary holders only ([`VectorLayout::is_primary_holder`]): a
/// replicated layout's primary copy sits on grid line 0 and is
/// broadcast from there by [`replicate_owned`]; every other layout is
/// complete as it stands.
pub(crate) fn from_primary_holders<T: Scalar>(
    hc: &mut Hypercube,
    layout: VectorLayout,
    locals: NodeSlab<T>,
) -> DistVector<T> {
    match layout.embedding() {
        VecEmbedding::Aligned { placement: Placement::Replicated, .. } => {
            let primary = layout.with_placement(Placement::Concentrated(0));
            replicate_owned(hc, DistVector::from_slab(primary, locals))
        }
        _ => DistVector::from_slab(layout, locals),
    }
}

/// Transpose a matrix: the result has the transposed shape on the
/// transposed grid (grid rows and columns swap roles), with
/// `out[i][j] = m[j][i]`. One blocked routed phase (at most `d`
/// supersteps) regardless of matrix size — the dimension-permutation view
/// of transposition from Johnsson & Ho's transposition report.
pub fn transpose<T: Scalar>(hc: &mut Hypercube, m: &DistMatrix<T>) -> DistMatrix<T> {
    let new_layout = m.layout().transposed();
    remap_with(hc, m, new_layout, |i, j| (j, i), |i, j| (j, i))
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
    remap_with(hc, m, new_layout, |i, j| (i, j), |i, j| (i, j))
}

/// General bijective matrix re-embedding: `out[fwd(i, j)] = m[i][j]`
/// under `new_layout`. `fwd` must be a bijection on index pairs with
/// inverse `inv` — transpose, redistribution, and torus shifts
/// ([`crate::shift`]) are all instances. One blocked routed phase.
pub fn remap_with<T: Scalar>(
    hc: &mut Hypercube,
    m: &DistMatrix<T>,
    new_layout: MatrixLayout,
    fwd: impl Fn(usize, usize) -> (usize, usize),
    inv: impl Fn(usize, usize) -> (usize, usize),
) -> DistMatrix<T> {
    let old = m.layout();
    assert_eq!(old.grid().cube(), new_layout.grid().cube(), "grid cube mismatch");
    let p = old.grid().p();

    // Pack: bucket local elements by destination node, ordered by the
    // destination's local offset so the receiver can unpack positionally.
    let mut traffic = Traffic::new(p);
    let mut max_packed = 0usize;
    for src in 0..p {
        let buf = &m.locals()[src];
        if buf.is_empty() {
            continue;
        }
        max_packed = max_packed.max(buf.len());
        let mut staged: Vec<(usize, usize, T)> = Vec::with_capacity(buf.len()); // (dst, new_off, value)
        for (i, j, off) in old.local_elements(src) {
            let (ni, nj) = fwd(i, j);
            let dst = new_layout.owner(ni, nj);
            staged.push((dst, new_layout.local_offset(ni, nj), buf[off]));
        }
        staged.sort_unstable_by_key(|&(dst, noff, _)| (dst, noff));
        for run in staged.chunk_by(|a, b| a.0 == b.0) {
            traffic.post(src, run[0].0, src as u64, run.iter().map(|&(_, _, x)| x));
        }
    }
    hc.charge_moves(max_packed);

    route_blocks(hc, &mut traffic);

    // Unpack: walk new local offsets in order; each element's source node
    // is recomputed via `inv`, and elements from one source arrive in
    // new-offset order.
    let mut max_unpacked = 0usize;
    let locals = NodeSlab::build(p, m.locals().total_len(), |dst, buf| {
        max_unpacked = max_unpacked.max(new_layout.local_len(dst));
        let arrived: Vec<(u64, &[T])> = traffic.inbox(dst).collect();
        let mut cursors = vec![0usize; arrived.len()];
        for (ni, nj, _off) in new_layout.local_elements(dst) {
            let (i, j) = inv(ni, nj);
            let src = old.owner(i, j) as u64;
            let bi = arrived
                .iter()
                .position(|&(tag, _)| tag == src)
                // vmplint: allow(p1) — the send phase computed the same owner arithmetic, so the block is present
                .expect("block from the predicted source");
            buf.push(arrived[bi].1[cursors[bi]]);
            cursors[bi] += 1;
        }
    });
    hc.charge_moves(max_unpacked);

    DistMatrix::from_slab(new_layout, locals)
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
