//! The distributed vector.

use vmp_hypercube::collective::allreduce_scalar;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{VecEmbedding, VectorLayout};

use crate::elem::{ReduceOp, Scalar};

/// A node's chunk part under one vector layout, decoded once per grid
/// line for a whole call: a `pc`-entry table for a row vector (chunked
/// over grid columns), a `pr`-entry one for a column vector; a linear
/// vector's part is the node itself. Agrees with
/// [`VectorLayout::part_of`].
pub(crate) struct Parts {
    /// Part of each grid line, indexed by the line's address bits.
    lines: Vec<usize>,
    /// Where the line bits sit in a node address.
    shift: u32,
}

impl Parts {
    pub(crate) fn new(layout: &VectorLayout) -> Self {
        let VecEmbedding::Aligned { axis, .. } = *layout.embedding() else {
            return Parts { lines: Vec::new(), shift: 0 };
        };
        // A part's index bits are the dims of the grid lines across the
        // other axis: a contiguous run of the address.
        let grid = layout.grid();
        let (count, dims) = grid.lines(axis.transpose());
        let shift = dims.first().map_or(0, |&d| d);
        Parts { lines: (0..count).map(|x| grid.line_and_part(axis, x << shift).1).collect(), shift }
    }

    pub(crate) fn of(&self, node: usize) -> usize {
        if self.lines.is_empty() {
            node
        } else {
            self.lines[(node >> self.shift) & (self.lines.len() - 1)]
        }
    }
}

/// A vector distributed over the simulated machine according to a
/// [`VectorLayout`]. Replicated embeddings store every copy, and the
/// copies are maintained bit-identical by every operation (checked by
/// [`DistVector::assert_consistent`]).
///
/// Storage is a single arena-backed [`NodeSlab`] — all chunks in one
/// contiguous allocation; see DESIGN.md § Data plane.
#[derive(Debug, Clone, PartialEq)]
pub struct DistVector<T> {
    layout: VectorLayout,
    locals: NodeSlab<T>,
}

impl<T: Scalar> DistVector<T> {
    /// Materialise a vector from `f(i)` (host-side; no machine charge).
    #[must_use]
    pub fn from_fn(layout: VectorLayout, mut f: impl FnMut(usize) -> T) -> Self {
        let locals = NodeSlab::build(layout.grid().p(), layout.stored_elements(), |node, buf| {
            if layout.holds(node) {
                buf.extend(layout.dist().part_indices(layout.part_of(node)).map(&mut f));
            }
        });
        DistVector { layout, locals }
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
        let node = self.layout.primary_holder(i);
        self.locals[node][self.layout.dist().local_index(i)]
    }

    /// Host-side copy to a dense `Vec` (tests / output only).
    #[must_use]
    pub fn to_dense(&self) -> Vec<T> {
        (0..self.n()).map(|i| self.get(i)).collect()
    }

    /// Per-node local chunks (crate-internal). Node `n`'s chunk is the
    /// slice `locals()[n]`.
    pub(crate) fn locals(&self) -> &NodeSlab<T> {
        &self.locals
    }

    /// Mutable per-node chunks (crate-internal; in-place kernels).
    pub(crate) fn locals_mut(&mut self) -> &mut NodeSlab<T> {
        &mut self.locals
    }

    /// The layout and the per-node chunks, by value (crate-internal;
    /// kernels that reuse the arena).
    pub(crate) fn into_parts(self) -> (VectorLayout, NodeSlab<T>) {
        (self.layout, self.locals)
    }

    /// Assemble directly from an arena (crate-internal; the hot path).
    /// The chunk lengths must be the layout's: the kernels charge from
    /// the layout's `max_count` instead of scanning them.
    pub(crate) fn from_slab(layout: VectorLayout, locals: NodeSlab<T>) -> Self {
        debug_assert_eq!(locals.p(), layout.grid().p());
        debug_assert!(
            (0..locals.p()).all(|node| locals.len_of(node) == layout.local_len(node)),
            "chunk lengths disagree with the layout"
        );
        DistVector { layout, locals }
    }

    /// Assemble from externally computed per-node chunks — the backend
    /// escape hatch for algorithms (e.g. the hypercube FFT) that run
    /// custom per-node kernels between primitive operations. Chunk
    /// lengths are validated against the layout.
    ///
    /// # Panics
    /// Panics if any node's chunk length disagrees with the layout.
    #[must_use]
    pub fn from_chunks(layout: VectorLayout, locals: NodeSlab<T>) -> Self {
        assert_eq!(locals.p(), layout.grid().p(), "one chunk per node");
        for node in 0..locals.p() {
            assert_eq!(locals.len_of(node), layout.local_len(node), "node {node} chunk length");
        }
        DistVector { layout, locals }
    }

    /// Read-only view of the per-node chunks (backend counterpart of
    /// [`DistVector::from_chunks`]): node `n`'s chunk is `chunks()[n]`,
    /// and `chunks().to_nested()` recovers the nested `Vec<Vec<T>>` form.
    #[must_use]
    pub fn chunks(&self) -> &NodeSlab<T> {
        &self.locals
    }

    /// Validate chunk lengths and (for replicated embeddings) that all
    /// replicas agree.
    pub fn assert_consistent(&self) {
        assert_eq!(self.locals.p(), self.layout.grid().p());
        for node in 0..self.locals.p() {
            assert_eq!(
                self.locals.len_of(node),
                self.layout.local_len(node),
                "node {node} chunk length"
            );
        }
        for i in 0..self.n() {
            let holders = self.layout.holders_of(i);
            let slot = self.layout.dist().local_index(i);
            let first = self.locals[holders[0]][slot];
            for &h in &holders[1..] {
                assert_eq!(self.locals[h][slot], first, "replica divergence at element {i}");
            }
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
        self.fold(hc, op, |node| {
            let b = &other.locals[node];
            move |i, slot: usize, x| f(i, x, b[slot])
        })
    }

    /// The one vector fold: the primary holders (see
    /// [`VectorLayout::is_primary_holder`]) fold their chunks, reading `slot`
    /// (global index `i`) as `lift(i, slot, x)` with `lift = at(node)`,
    /// and every other node contributes the identity. Then the partials
    /// combine in one all-reduce of a scalar per node.
    ///
    /// A replicated embedding holds a full copy on every grid line, so
    /// each line combines its own copy over its part dims only
    /// ([`VectorLayout::fold_dims`], `lg` of the line's length) and the
    /// result lands on every node without crossing lines; the host
    /// evaluates the primary line alone, since the replicas are
    /// identical. A concentrated or linear vector combines over every
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
                let indices = dist.part_indices(self.layout.part_of(node));
                let lift = at(node);
                let chunk = self.locals[node].iter().enumerate().zip(indices);
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
    fn part_tables_agree_with_part_of() {
        use vmp_layout::GridEncoding;
        for (dim, dr) in [(0u32, 0u32), (4, 2), (5, 2), (5, 4), (3, 0), (3, 3)] {
            for enc in [GridEncoding::Gray, GridEncoding::Binary] {
                let g = ProcGrid::with_encoding(Cube::new(dim), dr, enc);
                for layout in [
                    VectorLayout::aligned(7, g, Axis::Row, Placement::Replicated, Dist::Block),
                    VectorLayout::aligned(
                        7,
                        g,
                        Axis::Col,
                        Placement::Concentrated(g.pc() - 1),
                        Dist::Cyclic,
                    ),
                    VectorLayout::linear(7, g, Dist::Cyclic),
                ] {
                    let parts = Parts::new(&layout);
                    for node in 0..g.p() {
                        assert_eq!(parts.of(node), layout.part_of(node), "{layout:?} node {node}");
                    }
                }
            }
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
}
