//! Load-balanced one-dimensional index distributions.
//!
//! A matrix axis of `n` global indices is distributed over `2^k` grid
//! parts either in contiguous **blocks** (*consecutive* partitioning, in
//! the terminology of Johnsson & Ho's matrix-transposition report) or
//! **cyclically**. Both keep every part within one element of the
//! average — the "load-balanced embeddings" the abstract assumes — so the
//! per-processor work bound `ceil(n_r/2^{d_r}) * ceil(n_c/2^{d_c})` holds
//! for every primitive.
//!
//! Cyclic layout is what the paper's Gaussian elimination and simplex
//! want: as elimination shrinks the active submatrix, contiguous blocks
//! would idle the processors owning eliminated rows, while cyclic spreads
//! the active region over everyone.

/// The partitioning rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// Consecutive runs: part `t` owns a contiguous range.
    Block,
    /// Round-robin: index `i` belongs to part `i mod parts`.
    Cyclic,
}

/// A distribution of `n` global indices over `2^k` parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxisDist {
    n: usize,
    parts_log2: u32,
    kind: Dist,
}

impl AxisDist {
    /// Distribute `n` indices over `2^parts_log2` parts.
    #[must_use]
    pub fn new(n: usize, parts_log2: u32, kind: Dist) -> Self {
        assert!(parts_log2 < usize::BITS, "part count overflows usize");
        AxisDist { n, parts_log2, kind }
    }

    /// Number of global indices.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of parts `2^k`.
    #[inline]
    #[must_use]
    pub fn parts(&self) -> usize {
        1usize << self.parts_log2
    }

    /// `k = lg(parts)`.
    #[inline]
    #[must_use]
    pub fn parts_log2(&self) -> u32 {
        self.parts_log2
    }

    /// The partitioning rule.
    #[inline]
    #[must_use]
    pub fn kind(&self) -> Dist {
        self.kind
    }

    /// The part owning global index `i`.
    #[inline]
    #[must_use]
    pub fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.n, "index {i} out of range 0..{}", self.n);
        match self.kind {
            Dist::Cyclic => i & (self.parts() - 1),
            Dist::Block => {
                let (q, r) = self.quot_rem();
                // First r parts have q+1 elements, the rest q.
                let cut = r * (q + 1);
                if i < cut {
                    i / (q + 1)
                } else {
                    // q == 0 cannot happen here: it would mean i >= cut = n.
                    r + (i - cut).checked_div(q).expect("index beyond block cut with q = 0")
                }
            }
        }
    }

    /// The local slot of global index `i` within its owner part.
    #[inline]
    #[must_use]
    pub fn local_index(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        match self.kind {
            Dist::Cyclic => i >> self.parts_log2,
            Dist::Block => i - self.part_start(self.owner(i)),
        }
    }

    /// The global index at `(part, slot)`.
    #[inline]
    #[must_use]
    pub fn global_index(&self, part: usize, slot: usize) -> usize {
        debug_assert!(part < self.parts());
        debug_assert!(slot < self.count(part), "slot {slot} out of range for part {part}");
        match self.kind {
            Dist::Cyclic => (slot << self.parts_log2) | part,
            Dist::Block => self.part_start(part) + slot,
        }
    }

    /// The step between the global indices of consecutive slots of one
    /// part: `global_index(part, slot + 1) - global_index(part, slot)`.
    #[inline]
    #[must_use]
    pub fn slot_stride(&self) -> usize {
        match self.kind {
            Dist::Cyclic => self.parts(),
            Dist::Block => 1,
        }
    }

    /// Number of indices owned by `part`.
    #[inline]
    #[must_use]
    pub fn count(&self, part: usize) -> usize {
        debug_assert!(part < self.parts());
        // Identical for both rules: the first `n mod p` parts get one
        // extra element.
        let (q, r) = self.quot_rem();
        q + usize::from(part < r)
    }

    /// The largest per-part count — the virtual-processing ratio along
    /// this axis.
    #[inline]
    #[must_use]
    pub fn max_count(&self) -> usize {
        let (q, r) = self.quot_rem();
        q + usize::from(r > 0)
    }

    /// `(n / parts, n mod parts)`, by shift and mask: the part count is a
    /// power of two, and the per-node kernels call this for every node.
    #[inline]
    fn quot_rem(&self) -> (usize, usize) {
        (self.n >> self.parts_log2, self.n & (self.parts() - 1))
    }

    /// First global index of a block part (Block only).
    fn part_start(&self, part: usize) -> usize {
        debug_assert_eq!(self.kind, Dist::Block);
        let (q, r) = self.quot_rem();
        part * q + part.min(r)
    }

    /// The global index of `part`'s slot 0 — where it would be for an
    /// empty part; slot `s` holds `first_index(part) + s * slot_stride()`.
    #[inline]
    #[must_use]
    pub fn first_index(&self, part: usize) -> usize {
        match self.kind {
            Dist::Cyclic => part,
            Dist::Block => self.part_start(part),
        }
    }

    /// Iterate the global indices owned by `part`, in slot order: the
    /// kernels zip a block's rows and columns with these.
    #[inline]
    pub fn part_indices(&self, part: usize) -> impl Iterator<Item = usize> {
        let (first, stride) = (self.first_index(part), self.slot_stride());
        (0..self.count(part)).map(move |slot| first + slot * stride)
    }

    /// The **contiguous** range of local slots at `part` whose global
    /// indices fall in `[lo, hi)`. For both rules the owned indices are
    /// increasing in slot order, so the intersection is a slot interval —
    /// which is what lets an algorithm like Gaussian elimination touch
    /// (and be charged for) only the active trailing submatrix.
    #[must_use]
    pub fn local_slot_range(&self, part: usize, lo: usize, hi: usize) -> std::ops::Range<usize> {
        debug_assert!(part < self.parts());
        let cnt = self.count(part);
        if lo >= hi || cnt == 0 {
            return 0..0;
        }
        match self.kind {
            Dist::Block => {
                let s0 = self.part_start(part);
                let glo = lo.max(s0);
                let ghi = hi.min(s0 + cnt);
                if glo >= ghi {
                    0..0
                } else {
                    (glo - s0)..(ghi - s0)
                }
            }
            Dist::Cyclic => {
                let p = self.parts();
                // Smallest slot s with s*p + part >= bound.
                let first_at_least = |bound: usize| -> usize {
                    if bound > part {
                        (bound - part).div_ceil(p)
                    } else {
                        0
                    }
                };
                let s_lo = first_at_least(lo).min(cnt);
                let s_hi = first_at_least(hi).min(cnt);
                s_lo..s_hi
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_consistency(d: AxisDist) {
        // Every index has exactly one (owner, slot) and it round-trips.
        let mut counts = vec![0usize; d.parts()];
        for i in 0..d.n() {
            let part = d.owner(i);
            let slot = d.local_index(i);
            assert_eq!(d.global_index(part, slot), i, "roundtrip for {i}");
            counts[part] += 1;
        }
        for part in 0..d.parts() {
            assert_eq!(counts[part], d.count(part), "count of part {part}");
            assert!(d.count(part) <= d.max_count());
            for slot in 1..d.count(part) {
                let step = d.global_index(part, slot) - d.global_index(part, slot - 1);
                assert_eq!(step, d.slot_stride(), "stride of part {part} at slot {slot}");
            }
        }
        // Load balance: max - min <= 1.
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        assert!(max - min <= 1, "imbalance: max {max} min {min}");
        assert_eq!(counts.iter().sum::<usize>(), d.n());
    }

    #[test]
    fn block_divisible() {
        let d = AxisDist::new(16, 2, Dist::Block);
        check_consistency(d);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(3), 0);
        assert_eq!(d.owner(4), 1);
        assert_eq!(d.owner(15), 3);
        assert_eq!(d.local_index(5), 1);
        assert_eq!(d.count(2), 4);
    }

    #[test]
    fn block_ragged() {
        for n in [1usize, 5, 7, 9, 13, 17, 100] {
            for k in 0..5u32 {
                check_consistency(AxisDist::new(n, k, Dist::Block));
            }
        }
    }

    #[test]
    fn part_indices_step_through_global_index() {
        for kind in [Dist::Block, Dist::Cyclic] {
            for n in [0usize, 1, 3, 7, 13, 16, 33] {
                for k in 0..5u32 {
                    let d = AxisDist::new(n, k, kind);
                    for part in 0..d.parts() {
                        let got: Vec<usize> = d.part_indices(part).collect();
                        let expect: Vec<usize> =
                            (0..d.count(part)).map(|slot| d.global_index(part, slot)).collect();
                        assert_eq!(got, expect, "{kind:?} n={n} k={k} part={part}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_keeps_ranges_contiguous() {
        let d = AxisDist::new(13, 2, Dist::Block);
        for part in 0..4 {
            let idx: Vec<usize> = d.part_indices(part).collect();
            for w in idx.windows(2) {
                assert_eq!(w[1], w[0] + 1, "contiguous within part {part}");
            }
        }
    }

    #[test]
    fn cyclic_divisible() {
        let d = AxisDist::new(16, 2, Dist::Cyclic);
        check_consistency(d);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(1), 1);
        assert_eq!(d.owner(4), 0);
        assert_eq!(d.local_index(4), 1);
        assert_eq!(d.global_index(2, 3), 14);
    }

    #[test]
    fn cyclic_ragged() {
        for n in [1usize, 5, 7, 9, 13, 17, 100] {
            for k in 0..5u32 {
                check_consistency(AxisDist::new(n, k, Dist::Cyclic));
            }
        }
    }

    #[test]
    fn cyclic_spreads_prefixes() {
        // The point of cyclic layout: any contiguous prefix of the axis is
        // spread over (almost) all parts.
        let d = AxisDist::new(64, 3, Dist::Cyclic);
        let prefix = 16usize; // active region after some eliminations
        let mut per_part = vec![0usize; 8];
        for i in 48..64 {
            per_part[d.owner(i)] += 1;
        }
        assert!(per_part.iter().all(|&c| c == prefix / 8), "suffix spread evenly: {per_part:?}");
    }

    #[test]
    fn block_concentrates_prefixes() {
        let d = AxisDist::new(64, 3, Dist::Block);
        let mut per_part = vec![0usize; 8];
        for i in 48..64 {
            per_part[d.owner(i)] += 1;
        }
        assert_eq!(per_part, vec![0, 0, 0, 0, 0, 0, 8, 8]);
    }

    #[test]
    fn single_part_owns_everything() {
        for kind in [Dist::Block, Dist::Cyclic] {
            let d = AxisDist::new(10, 0, kind);
            check_consistency(d);
            for i in 0..10 {
                assert_eq!(d.owner(i), 0);
                assert_eq!(d.local_index(i), i);
            }
        }
    }

    #[test]
    fn more_parts_than_indices() {
        for kind in [Dist::Block, Dist::Cyclic] {
            let d = AxisDist::new(3, 3, kind);
            check_consistency(d);
            assert_eq!(d.max_count(), 1);
            let empty = (0..8).filter(|&t| d.count(t) == 0).count();
            assert_eq!(empty, 5);
        }
    }

    #[test]
    fn local_slot_range_matches_brute_force() {
        for kind in [Dist::Block, Dist::Cyclic] {
            for n in [0usize, 1, 7, 16, 33] {
                for k in 0..4u32 {
                    let d = AxisDist::new(n, k, kind);
                    for part in 0..d.parts() {
                        for lo in 0..=n {
                            for hi in lo..=n {
                                let range = d.local_slot_range(part, lo, hi);
                                let expect: Vec<usize> = (0..d.count(part))
                                    .filter(|&s| {
                                        let g = d.global_index(part, s);
                                        g >= lo && g < hi
                                    })
                                    .collect();
                                let got: Vec<usize> = range.collect();
                                assert_eq!(
                                    got, expect,
                                    "{kind:?} n={n} k={k} part={part} [{lo},{hi})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_axis() {
        for kind in [Dist::Block, Dist::Cyclic] {
            let d = AxisDist::new(0, 2, kind);
            check_consistency(d);
            assert_eq!(d.max_count(), 0);
        }
    }
}
