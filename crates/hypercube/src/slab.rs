//! Flat arena-backed per-node buffers — the machine's data plane.
//!
//! The seed implementation carried per-node payloads as `Vec<Vec<T>>`:
//! one heap allocation per node per collective round, cloned at every
//! superstep. [`NodeSlab<T>`] replaces that with one CSR-style flat
//! view: **one** contiguous `data` allocation plus a `p + 1` entry
//! `offsets` table; node `i`'s buffer is the slice
//! `data[offsets[i]..offsets[i + 1]]`.
//!
//! ### Aliasing rules
//!
//! Segments never overlap and are stored in node order, so two distinct
//! nodes' buffers can be borrowed mutably at once through
//! [`NodeSlab::pair_mut`] (a `split_at_mut` under the hood) — this is
//! what lets the combine collectives fold one partner into the other in
//! place, with no buffer taken or cloned. The simulated-clock charging
//! of the collectives is computed from segment *lengths* only and is
//! therefore unchanged by the representation; see DESIGN.md § Data plane.

use std::ops::{Index, IndexMut};

/// Per-node flat buffer arena: `p` variable-length segments backed by a
/// single contiguous allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSlab<T> {
    /// `p + 1` monotone offsets into `data`; segment `i` is
    /// `data[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    data: Vec<T>,
}

impl<T> NodeSlab<T> {
    /// A slab with `p` empty segments.
    #[must_use]
    pub fn new(p: usize) -> Self {
        NodeSlab { offsets: vec![0; p + 1], data: Vec::new() }
    }

    /// An empty builder that will hold `p` segments and roughly
    /// `data_capacity` elements without reallocating. Push segments in
    /// node order with [`NodeSlab::push_seg`] / [`NodeSlab::push_seg_with`].
    #[must_use]
    pub fn with_capacity(p: usize, data_capacity: usize) -> Self {
        let mut offsets = Vec::with_capacity(p + 1);
        offsets.push(0);
        NodeSlab { offsets, data: Vec::with_capacity(data_capacity) }
    }

    /// Number of segments (nodes).
    #[must_use]
    pub fn p(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total elements across all segments.
    #[must_use]
    pub fn total_len(&self) -> usize {
        // vmplint: allow(p1) — offsets holds at least the leading 0 by construction in every constructor
        *self.offsets.last().expect("offsets never empty")
    }

    /// Length of node `i`'s segment.
    #[must_use]
    pub fn len_of(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Longest segment length.
    #[must_use]
    pub fn max_seg_len(&self) -> usize {
        (0..self.p()).map(|i| self.len_of(i)).max().unwrap_or(0)
    }

    /// The `p + 1` offsets table.
    #[must_use]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Node `i`'s segment.
    #[must_use]
    pub fn seg(&self, i: usize) -> &[T] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Node `i`'s segment, mutably.
    pub fn seg_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Two distinct nodes' segments, both mutable (butterfly partners).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn pair_mut(&mut self, a: usize, b: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(a, b, "pair_mut needs two distinct segments");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (lo_s, lo_e) = (self.offsets[lo], self.offsets[lo + 1]);
        let (hi_s, hi_e) = (self.offsets[hi], self.offsets[hi + 1]);
        let (left, right) = self.data.split_at_mut(hi_s);
        let lo_slice = &mut left[lo_s..lo_e];
        let hi_slice = &mut right[..hi_e - hi_s];
        if a < b {
            (lo_slice, hi_slice)
        } else {
            (hi_slice, lo_slice)
        }
    }

    /// The raw backing storage (all segments, in node order).
    #[must_use]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Iterate over the segments in node order.
    pub fn iter_segs(&self) -> impl Iterator<Item = &[T]> {
        (0..self.p()).map(move |i| self.seg(i))
    }

    /// Run `f(node, segment)` over every segment, in node order — the
    /// per-node local phase of an SPMD step.
    pub fn for_each_seg_mut(&mut self, mut f: impl FnMut(usize, &mut [T])) {
        for node in 0..self.p() {
            f(node, self.seg_mut(node));
        }
    }

    /// Build `p` segments in node order: `f(node, buf)` appends node
    /// `node`'s segment to `buf`. One allocation for the whole machine
    /// (`data_capacity` is the size hint), no intermediate copies.
    ///
    /// **Contract:** `buf` is the arena's backing store and already holds
    /// the earlier nodes' segments, so `f` must only append; any in-place
    /// fix-up must stay within the suffix `buf[start..]`, `start` being
    /// `buf.len()` at entry.
    #[must_use]
    pub fn build(p: usize, data_capacity: usize, mut f: impl FnMut(usize, &mut Vec<T>)) -> Self {
        let mut slab = NodeSlab::with_capacity(p, data_capacity);
        for node in 0..p {
            slab.push_seg_with(|buf| f(node, buf));
        }
        slab
    }

    /// Append a segment built by `f` directly into the arena (builder
    /// API; segments must be pushed in node order).
    pub fn push_seg_with(&mut self, f: impl FnOnce(&mut Vec<T>)) {
        f(&mut self.data);
        self.offsets.push(self.data.len());
    }

    /// Reset to zero segments, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.data.clear();
    }

    /// Exchange contents with `other` without copying element data.
    pub fn swap(&mut self, other: &mut Self) {
        std::mem::swap(&mut self.offsets, &mut other.offsets);
        std::mem::swap(&mut self.data, &mut other.data);
    }
}

impl<T: Copy> NodeSlab<T> {
    /// Fold node `src`'s segment into node `dst`'s, elementwise and in
    /// place: `dst[i] = op(dst[i], src[i])`. The segments must have the
    /// same length.
    pub(crate) fn fold_seg(&mut self, dst: usize, src: usize, op: impl Fn(T, T) -> T) {
        let (d, s, len) = (self.offsets[dst], self.offsets[src], self.len_of(dst));
        assert_eq!(len, self.len_of(src), "fold_seg needs equal segment lengths");
        for i in 0..len {
            self.data[d + i] = op(self.data[d + i], self.data[s + i]);
        }
    }

    /// Empty every segment whose node fails `keep`, sliding the kept
    /// segments down in place: no new allocation, and only the kept
    /// elements are copied.
    pub fn retain_segs(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let p = self.p();
        let mut write = 0usize;
        for node in 0..p {
            // `offsets[node + 1]` is still the old end: only entries up
            // to `node` have been rewritten.
            let (start, end) = (self.offsets[node], self.offsets[node + 1]);
            self.offsets[node] = write;
            if keep(node) {
                self.data.copy_within(start..end, write);
                write += end - start;
            }
        }
        self.offsets[p] = write;
        self.data.truncate(write);
    }
}

impl<T: Clone> NodeSlab<T> {
    /// A slab with the given per-node lengths, filled with `fill`.
    #[must_use]
    pub fn filled(lens: &[usize], fill: T) -> Self {
        let total: usize = lens.iter().sum();
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        offsets.push(0);
        let mut acc = 0usize;
        for &l in lens {
            acc += l;
            offsets.push(acc);
        }
        NodeSlab { offsets, data: vec![fill; total] }
    }

    /// Append a segment copied from a slice (builder API).
    pub fn push_seg(&mut self, seg: &[T]) {
        self.data.extend_from_slice(seg);
        self.offsets.push(self.data.len());
    }

    /// Copy a nested `Vec<Vec<T>>` into a slab.
    #[must_use]
    pub fn from_nested(nested: &[Vec<T>]) -> Self {
        let total: usize = nested.iter().map(Vec::len).sum();
        let mut slab = NodeSlab::with_capacity(nested.len(), total);
        for buf in nested {
            slab.push_seg(buf);
        }
        slab
    }

    /// Copy out to the nested representation (the boundary to
    /// [`crate::collective::reference`] and tests).
    #[must_use]
    pub fn to_nested(&self) -> Vec<Vec<T>> {
        (0..self.p()).map(|i| self.seg(i).to_vec()).collect()
    }
}

impl<T> Index<usize> for NodeSlab<T> {
    type Output = [T];
    fn index(&self, i: usize) -> &[T] {
        self.seg(i)
    }
}

impl<T> IndexMut<usize> for NodeSlab<T> {
    fn index_mut(&mut self, i: usize) -> &mut [T] {
        self.seg_mut(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_slab_roundtrip_and_views() {
        let nested = vec![vec![1, 2, 3], vec![], vec![4], vec![5, 6]];
        let slab = NodeSlab::from_nested(&nested);
        assert_eq!(slab.p(), 4);
        assert_eq!(slab.total_len(), 6);
        assert_eq!(slab.max_seg_len(), 3);
        assert_eq!(slab.len_of(1), 0);
        assert_eq!(&slab[0], &[1, 2, 3][..]);
        assert_eq!(&slab[2], &[4][..]);
        assert_eq!(slab.to_nested(), nested);
        assert_eq!(slab.offsets(), &[0, 3, 3, 4, 6]);
    }

    #[test]
    fn pair_mut_gives_disjoint_slices_in_order() {
        let mut slab = NodeSlab::from_nested(&[vec![1, 2], vec![10], vec![20, 21]]);
        {
            let (a, b) = slab.pair_mut(2, 0);
            assert_eq!(a, &[20, 21][..]);
            assert_eq!(b, &[1, 2][..]);
            a[0] = 99;
            b[1] = 88;
        }
        assert_eq!(&slab[2], &[99, 21][..]);
        assert_eq!(&slab[0], &[1, 88][..]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_mut_rejects_same_segment() {
        let mut slab: NodeSlab<u8> = NodeSlab::new(3);
        let _ = slab.pair_mut(1, 1);
    }

    #[test]
    fn builder_and_clear_reuse() {
        let mut slab = NodeSlab::with_capacity(2, 8);
        slab.push_seg(&[7u32, 8]);
        slab.push_seg_with(|data| data.extend([9, 10, 11]));
        assert_eq!(slab.p(), 2);
        assert_eq!(slab.to_nested(), vec![vec![7, 8], vec![9, 10, 11]]);
        slab.clear();
        assert_eq!(slab.p(), 0);
        assert_eq!(slab.total_len(), 0);
        slab.push_seg(&[1]);
        assert_eq!(slab.to_nested(), vec![vec![1]]);
    }

    #[test]
    fn for_each_seg_mut_visits_every_node_in_order() {
        let mut slab = NodeSlab::from_nested(&[vec![1, 2], vec![], vec![3]]);
        let mut seen = Vec::new();
        slab.for_each_seg_mut(|node, seg| {
            seen.push((node, seg.len()));
            for v in seg.iter_mut() {
                *v += 10 * node as i32;
            }
        });
        assert_eq!(seen, vec![(0, 2), (1, 0), (2, 1)]);
        assert_eq!(slab.to_nested(), vec![vec![1, 2], vec![], vec![23]]);
    }

    #[test]
    fn build_appends_one_segment_per_node() {
        let slab = NodeSlab::build(5, 0, |n: usize, buf: &mut Vec<usize>| {
            buf.extend(std::iter::repeat_n(n, n));
        });
        for n in 0..5 {
            assert_eq!(slab.seg(n), vec![n; n].as_slice());
        }
        assert_eq!(slab.total_len(), 10);
    }

    #[test]
    fn filled_matches_lengths() {
        let slab = NodeSlab::filled(&[2, 0, 3], 7u16);
        assert_eq!(slab.to_nested(), vec![vec![7, 7], vec![], vec![7, 7, 7]]);
    }

    #[test]
    fn fold_seg_touches_only_its_target() {
        let mut slab = NodeSlab::from_nested(&[vec![1.0, 2.0], vec![9.0], vec![10.0, 20.0]]);
        slab.fold_seg(2, 0, |a: f64, b| a - 0.5 * b);
        assert_eq!(slab.to_nested(), vec![vec![1.0, 2.0], vec![9.0], vec![9.5, 19.0]]);
    }

    #[test]
    fn retain_segs_compacts_in_place() {
        let nested: Vec<Vec<u32>> = (0..6).map(|n| vec![n; n as usize % 4]).collect();
        let mut slab = NodeSlab::from_nested(&nested);
        slab.retain_segs(|n| n % 2 == 1);
        let want: Vec<Vec<u32>> = nested
            .iter()
            .enumerate()
            .map(|(n, seg)| if n % 2 == 1 { seg.clone() } else { Vec::new() })
            .collect();
        assert_eq!(slab.to_nested(), want);
        assert_eq!(slab.total_len(), want.iter().map(Vec::len).sum::<usize>());
        assert_eq!(slab.data().len(), slab.total_len());
    }
}
