//! The distributed vector.

use vmp_hypercube::collective::allreduce_scalar;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_hypercube::topology::NodeId;
use vmp_layout::VectorLayout;

use crate::elem::{ReduceOp, Scalar};

/// A vector distributed over the simulated machine according to a
/// [`VectorLayout`].
///
/// The host stores each *part* of the vector once: one segment per part
/// of the layout's chunking (`layout.dist().parts()` of them: one per
/// grid line across the vector's axis for an aligned vector, whatever
/// its placement, and one per node for a linear one). Which nodes hold a
/// part is the layout's business: node `n`'s chunk is its part's segment
/// when `layout.holds(n)` and empty otherwise
/// ([`DistVector::node_chunk`]). So replicas cannot diverge, and an
/// embedding change that only moves copies between nodes (replicating,
/// or concentrating onto another grid line) is charged to the machine
/// without touching the data.
///
/// Storage is a single arena-backed [`NodeSlab`] — all parts in one
/// contiguous allocation; see DESIGN.md § Data plane.
#[derive(Debug, Clone, PartialEq)]
pub struct DistVector<T> {
    layout: VectorLayout,
    parts: NodeSlab<T>,
}

impl<T: Scalar> DistVector<T> {
    /// Materialise a vector from `f(i)` (host-side; no machine charge).
    /// `f` is called once per element, part by part.
    #[must_use]
    pub fn from_fn(layout: VectorLayout, mut f: impl FnMut(usize) -> T) -> Self {
        let dist = layout.dist();
        let parts = NodeSlab::build(dist.parts(), layout.n(), |part, buf| {
            buf.extend(dist.part_indices(part).map(&mut f));
        });
        DistVector { layout, parts }
    }

    /// Materialise from a host slice.
    #[must_use]
    pub fn from_slice(layout: VectorLayout, data: &[T]) -> Self {
        assert_eq!(data.len(), layout.n(), "vector length mismatch");
        Self::from_fn(layout, |i| data[i])
    }

    /// A vector with every element `value`.
    #[must_use]
    pub fn constant(layout: VectorLayout, value: T) -> Self {
        Self::from_fn(layout, |_| value)
    }

    /// The embedding.
    #[must_use]
    pub fn layout(&self) -> &VectorLayout {
        &self.layout
    }

    /// Vector length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// Host-side read of element `i` (tests / output only).
    #[must_use]
    pub fn get(&self, i: usize) -> T {
        let dist = self.layout.dist();
        self.parts[dist.owner(i)][dist.local_index(i)]
    }

    /// Host-side copy to a dense `Vec` (tests / output only).
    #[must_use]
    pub fn to_dense(&self) -> Vec<T> {
        (0..self.n()).map(|i| self.get(i)).collect()
    }

    /// Node `node`'s chunk: its part's segment if the node holds one
    /// under the layout, else empty.
    #[must_use]
    pub fn node_chunk(&self, node: NodeId) -> &[T] {
        if self.layout.holds(node) {
            &self.parts[self.layout.part_of(node)]
        } else {
            &[]
        }
    }

    /// The parts, mutably (crate-internal; in-place kernels).
    pub(crate) fn parts_mut(&mut self) -> &mut NodeSlab<T> {
        &mut self.parts
    }

    /// The same parts under `layout`, which must chunk them the same way
    /// (crate-internal): an embedding change that moves no data.
    pub(crate) fn relabel(self, layout: VectorLayout) -> Self {
        assert_eq!(self.layout.dist(), layout.dist(), "relabelling must keep the chunking");
        DistVector { layout, parts: self.parts }
    }

    /// Assemble from a per-node slab in which the nodes of the layout's
    /// primary line ([`VectorLayout::primary_node`]) hold the parts; the
    /// other nodes' segments are ignored (crate-internal: the result of
    /// a collective).
    ///
    /// # Panics
    /// Panics if a part's segment length disagrees with the layout.
    pub(crate) fn from_primary_line(layout: VectorLayout, slab: &NodeSlab<T>) -> Self {
        let dist = layout.dist();
        let parts = NodeSlab::build(dist.parts(), layout.n(), |part, buf| {
            let seg = &slab[layout.primary_node(part)];
            assert_eq!(seg.len(), dist.count(part), "part {part} chunk length");
            buf.extend_from_slice(seg);
        });
        DistVector { layout, parts }
    }

    /// Assemble from externally computed parts — the backend escape
    /// hatch for algorithms (e.g. the hypercube FFT) that run custom
    /// per-node kernels between primitive operations. Segment `q` of
    /// `parts` is part `q` of the layout's chunking: for a linear vector
    /// that is node `q`'s chunk, for an aligned one the chunk every
    /// holder of part `q` holds. Lengths are validated against the
    /// layout.
    ///
    /// # Panics
    /// Panics if there is not one segment per part, or a segment's length
    /// disagrees with the layout.
    #[must_use]
    pub fn from_chunks(layout: VectorLayout, parts: NodeSlab<T>) -> Self {
        let vector = DistVector { layout, parts };
        vector.assert_consistent();
        vector
    }

    /// Read-only view of the parts (backend counterpart of
    /// [`DistVector::from_chunks`]): segment `q` is part `q`. For a linear
    /// vector that is node `q`'s chunk, so `chunks().to_nested()`
    /// recovers the nested per-node `Vec<Vec<T>>` form; for an aligned
    /// vector node `n`'s chunk is [`DistVector::node_chunk`].
    #[must_use]
    pub fn chunks(&self) -> &NodeSlab<T> {
        &self.parts
    }

    /// Validate the storage against the layout: one segment per part,
    /// each of its part's length.
    ///
    /// # Panics
    /// Panics on any disagreement.
    pub fn assert_consistent(&self) {
        let dist = self.layout.dist();
        assert_eq!(self.parts.p(), dist.parts(), "one segment per part");
        for part in 0..self.parts.p() {
            assert_eq!(self.parts.len_of(part), dist.count(part), "part {part} chunk length");
        }
    }

    /// Reduce the whole vector to one scalar with `op`, lifting each
    /// element through `lift(global_index, value)` first. The result
    /// lands on every node. This is a collective and is charged: a
    /// replicated vector combines inside each grid line (`lg` of the
    /// line's length exchange steps), a concentrated or linear one over
    /// every cube dim ([`crate::analysis::predicted_fold`] prices it).
    ///
    /// The `lift` hook makes masked reductions free of special cases:
    /// return `op.identity()` for indices outside the range of interest —
    /// exactly how the Gaussian-elimination pivot search restricts itself
    /// to rows `k..n`.
    pub fn reduce_lifted<U: Scalar, O: ReduceOp<U>>(
        &self,
        hc: &mut Hypercube,
        op: O,
        lift: impl Fn(usize, T) -> U,
    ) -> U {
        let lift = &lift;
        self.fold(hc, op, |_| move |i, _, x| lift(i, x))
    }

    /// `self.zip(hc, other, f).reduce_all(hc, op)` without the temporary:
    /// `f(i, self[i], other[i])` is folded as soon as it is formed. Payload,
    /// clock and counters are bit-identical to the two-step spelling (same
    /// fold order, same charges: the zip pass, then the fold of
    /// [`DistVector::reduce_lifted`]).
    ///
    /// # Panics
    /// Panics unless the two vectors share a layout.
    pub fn zip_reduce<W: Scalar, U: Scalar, O: ReduceOp<U>>(
        &self,
        hc: &mut Hypercube,
        other: &DistVector<W>,
        op: O,
        f: impl Fn(usize, T, W) -> U,
    ) -> U {
        assert_eq!(self.layout(), other.layout(), "zip operands must share a layout");
        hc.charge_flops(self.layout.dist().max_count()); // the zip pass
        let f = &f;
        self.fold(hc, op, |part| {
            let b = &other.parts[part];
            move |i, slot: usize, x| f(i, x, b[slot])
        })
    }

    /// The one vector fold: the primary holders (see
    /// [`VectorLayout::is_primary_holder`]) fold their chunks, reading `slot`
    /// (global index `i`) of part `q` as `lift(i, slot, x)` with
    /// `lift = at(q)`, and every other node contributes the identity.
    /// Then the partials combine in one all-reduce of a scalar per node.
    ///
    /// A replicated embedding holds a full copy on every grid line, so
    /// each line combines its own copy over its part dims only
    /// ([`VectorLayout::fold_dims`], `lg` of the line's length) and the
    /// result lands on every node without crossing lines; the host
    /// evaluates the primary line alone, since every line holds the same
    /// parts. A concentrated or linear vector combines over every
    /// cube dim. Either way only the primary holders' chunks are read, so
    /// a non-idempotent op (sum) sees each element once, and the host
    /// combines `O(holders × lg p)` times ([`allreduce_scalar`]).
    fn fold<U: Scalar, O: ReduceOp<U>, L: Fn(usize, usize, T) -> U>(
        &self,
        hc: &mut Hypercube,
        op: O,
        at: impl Fn(usize) -> L,
    ) -> U {
        let cube = self.layout.grid().cube();
        let dist = self.layout.dist();
        // The primary line's nodes are its fixed `bits` plus every
        // assignment of the part dims; the all-reduce runs over `dims`.
        let (part_dims, dims) = (self.layout.part_dims(), self.layout.fold_dims());
        let (_, bits) = self.layout.primary_line();
        let leaves = (0..1usize << part_dims.len())
            .map(|c| bits | cube.deposit_coords(c, part_dims))
            .filter(|&node| self.layout.local_len(node) > 0)
            .map(|node| {
                let part = self.layout.part_of(node);
                let lift = at(part);
                let chunk = self.parts[part].iter().enumerate().zip(dist.part_indices(part));
                let acc = chunk
                    .fold(op.identity(), |acc, ((slot, &v), i)| op.combine(acc, lift(i, slot, v)));
                (cube.extract_coords(node, dims), acc)
            });
        hc.charge_flops(dist.max_count());
        allreduce_scalar(hc, dims, op.identity(), leaves, |a, b| op.combine(a, b))
    }

    /// Reduce to a scalar with `op`, landing on every node; charged as
    /// [`DistVector::reduce_lifted`].
    pub fn reduce_all<O: ReduceOp<T>>(&self, hc: &mut Hypercube, op: O) -> T {
        self.reduce_lifted(hc, op, |_, v| v)
    }
}

impl<T: crate::elem::Numeric> DistVector<T> {
    /// Dot product with an identically laid-out vector: one fused
    /// elementwise pass and reduce-to-scalar (replicated result).
    pub fn dot(&self, hc: &mut Hypercube, other: &DistVector<T>) -> T {
        self.zip_reduce(hc, other, crate::elem::Sum, |_, a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::{ArgMaxAbs, ArgMin, Loc, Max, Sum};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Axis, Dist, Placement, ProcGrid};

    fn grid(dim: u32, dr: u32) -> ProcGrid {
        ProcGrid::new(Cube::new(dim), dr)
    }

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    #[test]
    fn from_fn_get_roundtrip_all_embeddings() {
        let g = grid(4, 2);
        for layout in [
            VectorLayout::aligned(11, g, Axis::Row, Placement::Replicated, Dist::Cyclic),
            VectorLayout::aligned(11, g, Axis::Row, Placement::Concentrated(3), Dist::Block),
            VectorLayout::aligned(11, g, Axis::Col, Placement::Replicated, Dist::Block),
            VectorLayout::linear(11, g, Dist::Cyclic),
        ] {
            let v = DistVector::from_fn(layout, |i| i as i64 * 3 - 5);
            v.assert_consistent();
            for i in 0..11 {
                assert_eq!(v.get(i), i as i64 * 3 - 5);
            }
            assert_eq!(v.to_dense(), (0..11).map(|i| i as i64 * 3 - 5).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reduce_all_sums_each_element_once_despite_replication() {
        let g = grid(4, 2);
        let mut hc = machine(4);
        let layout = VectorLayout::aligned(10, g, Axis::Row, Placement::Replicated, Dist::Block);
        let v = DistVector::from_fn(layout, |i| (i + 1) as f64);
        let s = v.reduce_all(&mut hc, Sum);
        assert_eq!(s, 55.0, "each element counted exactly once");
        assert!(hc.elapsed_us() > 0.0, "reduction is charged");
    }

    #[test]
    fn reduce_all_concentrated_and_linear() {
        let g = grid(3, 1);
        let mut hc = machine(3);
        let conc = VectorLayout::aligned(9, g, Axis::Col, Placement::Concentrated(2), Dist::Cyclic);
        let v = DistVector::from_fn(conc, |i| i as f64);
        assert_eq!(v.reduce_all(&mut hc, Sum), 36.0);
        let lin = VectorLayout::linear(9, g, Dist::Block);
        let w = DistVector::from_fn(lin, |i| i as f64);
        assert_eq!(w.reduce_all(&mut hc, Max), 8.0);
    }

    #[test]
    fn lifted_reduce_supports_masks_and_argmax() {
        let g = grid(4, 2);
        let mut hc = machine(4);
        let layout = VectorLayout::aligned(12, g, Axis::Col, Placement::Replicated, Dist::Cyclic);
        let data = [3.0, -9.0, 4.0, 8.5, -2.0, 0.0, -8.5, 7.0, 1.0, -1.0, 5.0, 2.0];
        let v = DistVector::from_slice(layout, &data);
        // Unmasked arg-max-abs: index 1 (|-9|).
        let top = v.reduce_lifted(&mut hc, ArgMaxAbs, |i, x| Loc::new(x, i));
        assert_eq!(top.index, 1);
        // Masked to i >= 4 (the pivot-search pattern): |-8.5| at 6 wins
        // over 8.5 at 3 which is masked out; tie at |8.5|? index 6 only.
        let masked = v.reduce_lifted(&mut hc, ArgMaxAbs, |i, x| {
            if i >= 4 {
                Loc::new(x, i)
            } else {
                Loc::new(0.0, usize::MAX)
            }
        });
        assert_eq!(masked.index, 6);
    }

    #[test]
    fn empty_vector_reduces_to_identity() {
        let g = grid(2, 1);
        let mut hc = machine(2);
        let layout = VectorLayout::linear(0, g, Dist::Block);
        let v: DistVector<f64> = DistVector::from_fn(layout, |_| unreachable!());
        assert_eq!(v.reduce_all(&mut hc, Sum), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_slice_checks_length() {
        let g = grid(2, 1);
        let layout = VectorLayout::linear(5, g, Dist::Block);
        let _ = DistVector::from_slice(layout, &[1.0f64; 4]);
    }

    /// The fused fold against the spelled-out `zip` + `reduce_all` on
    /// random non-integer data: same result bits, clock bits and counters
    /// for every embedding, for a sum of products and for an arg-min whose
    /// ties only the index order breaks.
    #[test]
    fn zip_reduce_is_bit_identical_to_zip_then_reduce_all() {
        fn both<U: Scalar, O: ReduceOp<U>>(
            a: &DistVector<f64>,
            b: &DistVector<f64>,
            op: O,
            f: impl Fn(usize, f64, f64) -> U + Copy,
        ) -> (U, U) {
            // A clock that already reads a fraction, so one merged charge
            // `2a` would round differently from the two charges `a`, `a`.
            let machine = || {
                let mut hc = Hypercube::new(a.layout().grid().cube().dim(), CostModel::cm2());
                hc.charge_moves(1);
                hc
            };
            let mut hc_ref = machine();
            let want = a.zip(&mut hc_ref, b, f).reduce_all(&mut hc_ref, op);
            let mut hc = machine();
            let got = a.zip_reduce(&mut hc, b, op, f);
            assert_eq!(hc.elapsed_us().to_bits(), hc_ref.elapsed_us().to_bits());
            assert_eq!(hc.counters(), hc_ref.counters());
            (got, want)
        }
        let mut rng = StdRng::seed_from_u64(1989);
        let g = grid(4, 2);
        for layout in [
            // One node: no collective step follows the fold, so the clock
            // shows the two flop charges as they are.
            VectorLayout::linear(60, grid(0, 0), Dist::Cyclic),
            VectorLayout::linear(60, g, Dist::Block),
            VectorLayout::aligned(60, g, Axis::Row, Placement::Replicated, Dist::Cyclic),
            VectorLayout::aligned(60, g, Axis::Col, Placement::Concentrated(2), Dist::Block),
        ] {
            let a = DistVector::from_fn(layout, |_| rng.gen_range(-1.0..1.0));
            let b = DistVector::from_fn(layout, |_| rng.gen_range(-1.0..1.0));
            let (got, want) = both(&a, &b, Sum, |i, x, y| x * y + i as f64 / 7.0);
            assert_eq!(got.to_bits(), want.to_bits());
            // Rounded to three values, so most candidates tie.
            let (got, want) = both(&a, &b, ArgMin, |i, x, y| Loc::new((x + y).round(), i));
            assert_eq!((got.value.to_bits(), got.index), (want.value.to_bits(), want.index));
        }
    }

    /// A sum that counts its combines.
    #[derive(Clone, Copy)]
    struct CountingSum<'a>(&'a std::cell::Cell<usize>);

    impl ReduceOp<f64> for CountingSum<'_> {
        fn identity(&self) -> f64 {
            0.0
        }
        fn combine(&self, a: f64, b: f64) -> f64 {
            self.0.set(self.0.get() + 1);
            a + b
        }
    }

    /// Host work of a fold follows the holders, not `p`: at p = 4096 a
    /// replicated fold of 64 elements combines within one grid line (its
    /// 64 elements, then a 64-leaf tree), and a concentrated one folds
    /// its line's 64 leaves through `lg p` levels of memoised identity
    /// subtrees. A fold over a `p`-entry slab made more than `p`.
    #[test]
    fn fold_combines_scale_with_the_holders() {
        let (dim, n) = (12u32, 64usize);
        let g = grid(dim, dim / 2);
        let p = g.p();
        let line_len = g.pc().max(g.pr());
        let lg_p = dim as usize;
        for axis in [Axis::Row, Axis::Col] {
            let line = g.lines(axis).0 - 1;
            for (placement, bound) in [
                (Placement::Replicated, p / 8 - 1),
                (Placement::Concentrated(line), n + line_len * lg_p),
            ] {
                let layout = VectorLayout::aligned(n, g, axis, placement, Dist::Cyclic);
                let v = DistVector::from_fn(layout, |i| i as f64);
                let combines = std::cell::Cell::new(0);
                let mut hc = machine(dim);
                let sum = v.reduce_all(&mut hc, CountingSum(&combines));
                assert_eq!(sum, (0..n).sum::<usize>() as f64);
                assert!(
                    combines.get() <= bound,
                    "{axis:?} {placement:?}: {} combines, bound {bound}",
                    combines.get()
                );
            }
        }
    }
    /// Host work follows the parts, not the replicas: at p = 4096 a
    /// 64 x 64 matrix's rows and columns have √p = 64 parts, and an
    /// `extract_replicated`, a cross-line `concentrate` and a replicated
    /// `map_inplace` each build or visit 64 one-element segments. With
    /// every replica stored, each visited p = 4096.
    #[test]
    fn host_work_follows_the_parts() {
        use crate::matrix::DistMatrix;
        use crate::{primitives, remap};
        use vmp_layout::{MatShape, MatrixLayout};
        let dim = 12u32;
        let root_p = 1usize << (dim / 2);
        let layout = MatrixLayout::cyclic(MatShape::new(root_p, root_p), grid(dim, dim / 2));
        let m = DistMatrix::from_fn(layout, |i, j| (i * root_p + j) as f64);
        let mut hc = machine(dim);
        let visits = std::cell::Cell::new(0usize);
        let counted = |_: usize, x: f64| {
            visits.set(visits.get() + 1);
            x
        };

        let mut row = primitives::extract_replicated(&mut hc, &m, Axis::Row, 5);
        assert_eq!((row.chunks().p(), row.chunks().total_len()), (root_p, root_p));
        row.map_inplace(&mut hc, counted);
        assert_eq!(visits.replace(0), root_p, "replicated map_inplace");

        let col = primitives::extract(&mut hc, &m, Axis::Col, 3);
        hc.reset();
        let moved = remap::concentrate(&mut hc, &col, root_p - 1);
        assert!(hc.counters().message_steps > 0, "the move crossed grid lines");
        assert_eq!((moved.chunks().p(), moved.chunks().total_len()), (root_p, root_p));
        let _ = moved.map(&mut hc, counted);
        assert_eq!(visits.get(), root_p, "concentrated map");
        assert_eq!(
            moved.to_dense(),
            (0..root_p).map(|i| (i * root_p + 3) as f64).collect::<Vec<_>>()
        );
    }
}
