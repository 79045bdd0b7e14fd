//! Vector scans (parallel prefix) and segmented operations.
//!
//! Scans are the Connection Machine's signature operation (Blelloch's
//! scan model — the same authors' framework), and the natural extension
//! of the four primitives' vocabulary: `reduce` collapses a vector,
//! `scan` keeps every prefix. Segmented variants run many independent
//! scans in one pass, driven by a flag vector, via the classical
//! operator transform (the segmented operator on `(flag, value)` pairs
//! is associative whenever the base operator is).
//!
//! Scans are defined in **global index order**, which requires the
//! block (consecutive) distribution: each node's chunk is a contiguous
//! run, so a scan is a local pass, an exclusive scan of per-node totals
//! across the chunked direction, and a local fix-up. (A cyclic chunk
//! interleaves elements from everywhere, so no local pass can respect
//! index order — constructors assert block chunking.)

use vmp_hypercube::collective;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::route::charge_blocks;
use vmp_hypercube::slab::NodeSlab;
use vmp_layout::{Dist, VectorLayout};

use crate::elem::{ReduceOp, Scalar};
use crate::vector::DistVector;

/// Inclusive scan in global index order: `out[i] = v[0] op ... op v[i]`.
///
/// Works on linear and axis-aligned embeddings (replicated aligned
/// vectors scan every replica consistently). Cost: one local pass,
/// `O(lg p)` combine supersteps on single totals, one local fix-up.
///
/// # Panics
/// Panics if the vector's chunking is not `Dist::Block` (see module
/// docs), or the op is applied to a concentrated embedding whose line
/// does not hold data.
pub fn scan_inclusive<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    op: O,
) -> DistVector<T> {
    scan_impl(hc, v, op, true)
}

/// Exclusive scan in global index order: `out[i] = v[0] op ... op
/// v[i-1]`, with `out[0] = op.identity()`.
pub fn scan_exclusive<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    op: O,
) -> DistVector<T> {
    scan_impl(hc, v, op, false)
}

fn scan_impl<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    op: O,
    inclusive: bool,
) -> DistVector<T> {
    let layout = *v.layout();
    let dist = layout.dist();
    assert_eq!(
        dist.kind(),
        Dist::Block,
        "index-order scans require the block (consecutive) distribution"
    );

    // Part by part, in part order: a local scan offset by the fold of the
    // earlier parts' totals. On the machine every holder scans its chunk,
    // allgathers one total per node across the dims the parts are laid
    // out along (every grid line at once; lines without data gather
    // identities), folds the totals of the parts before its own and fixes
    // its chunk up.
    let mut offset = op.identity();
    let parts = NodeSlab::build(dist.parts(), layout.n(), |part, out| {
        let mut acc = op.identity();
        for &x in &v.chunks()[part] {
            if inclusive {
                acc = op.combine(acc, x);
                out.push(op.combine(offset, acc));
            } else {
                out.push(op.combine(offset, acc));
                acc = op.combine(acc, x);
            }
        }
        offset = op.combine(offset, acc);
    });
    let max_chunk = dist.max_count();
    hc.charge_flops(max_chunk);
    collective::charge_allgather(hc, layout.part_dims(), &vec![1; layout.grid().p()]);
    hc.charge_flops(dist.parts());
    hc.charge_flops(max_chunk);
    DistVector::from_chunks(layout, parts)
}

/// A segment-boundary flag: `true` starts a new segment at that index.
pub type SegFlag = bool;

/// Segmented inclusive scan: an independent inclusive scan restarts at
/// every index whose flag is `true` (index 0 always starts a segment).
///
/// Implemented with the classical segmented-operator transform on
/// `(flag, value)` pairs — one ordinary scan, no extra communication.
///
/// # Panics
/// As [`scan_inclusive`], plus the flag vector must share the value
/// vector's layout.
pub fn segmented_scan_inclusive<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    flags: &DistVector<SegFlag>,
    op: O,
) -> DistVector<T> {
    assert_eq!(v.layout(), flags.layout(), "flags must share the value vector's layout");
    let paired = v.zip(hc, flags, |_, x, f| (f, x));
    let scanned = scan_inclusive(hc, &paired, Segmented { op });
    scanned.map(hc, |_, (_, x)| x)
}

/// Segmented reduce: the total of each segment, delivered to **every**
/// position of that segment (a "segmented all-reduce"). Composing with
/// `extract`-style reads gives per-segment scalars.
pub fn segmented_reduce<T: Scalar, O: ReduceOp<T>>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    flags: &DistVector<SegFlag>,
    op: O,
) -> DistVector<T> {
    // Forward segmented scan gives each position the fold of its segment
    // prefix; the segment total is the value at the segment's LAST
    // position. Spread it over the whole segment with a backward
    // copy-scan: reverse, segmented-scan with a first-wins operator
    // (sound monoid over Option<T>), reverse back.
    let fwd = segmented_scan_inclusive(hc, v, flags, op);
    let rev_vals = reverse(hc, &fwd);
    let rev_some = rev_vals.map(hc, |_, x| Some(x));
    // In reversed coordinates a segment starts right after the mirror of
    // an original segment start: rev_flag[i] = (i == 0) || flag[n - i].
    // Built as a routed shift of the original flags, then a reverse.
    let shifted =
        route_permutation(hc, flags, |i| if i > 0 { Some(i - 1) } else { None }, Some(true));
    let rev_flags = reverse(hc, &shifted);
    let copied = segmented_scan_inclusive(hc, &rev_some, &rev_flags, FirstSome);
    // vmplint: allow(p1) — rev_flags marks position 0 a segment start, so the segmented scan covers every index
    let rev_out = copied.map(hc, |_, o| o.expect("every position is in a segment"));
    reverse(hc, &rev_out)
}

/// Reverse a vector (index `i` -> `n-1-i`) via one blocked routed phase.
pub fn reverse<T: Scalar>(hc: &mut Hypercube, v: &DistVector<T>) -> DistVector<T> {
    let n = v.n();
    route_permutation(hc, v, |i| Some(n - 1 - i), None)
}

/// Route each element `i` to position `dest(i)` (a partial injection);
/// positions not hit by any source are filled with `fill`. One blocked
/// dimension-ordered routed phase, plus a broadcast for replicated
/// embeddings.
///
/// # Panics
/// Panics if some position receives two elements, or none and `fill` is
/// `None`.
pub fn route_permutation<T: Scalar>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    dest: impl Fn(usize) -> Option<usize>,
    fill: Option<T>,
) -> DistVector<T> {
    crate::remap::move_elements(hc, v, *v.layout(), dest, fill)
}

/// Exclusive count of `true`s before each position — Blelloch's
/// `enumerate`, the index-computation half of stream compaction.
pub fn enumerate(hc: &mut Hypercube, mask: &DistVector<bool>) -> DistVector<usize> {
    let ints = mask.map(hc, |_, b| usize::from(b));
    scan_exclusive(hc, &ints, crate::elem::Sum)
}

/// Stream compaction — Blelloch's `pack`: keep the elements whose mask
/// is `true`, in order, as a new (shorter) block-distributed vector on
/// the same grid. One `enumerate` (scan) plus one blocked routed phase.
///
/// # Panics
/// Panics if mask and values differ in layout, or on non-block chunking.
pub fn pack<T: Scalar>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    mask: &DistVector<bool>,
) -> DistVector<T> {
    assert_eq!(v.layout(), mask.layout(), "mask must share the value vector's layout");
    let old = *v.layout();
    let positions = enumerate(hc, mask);
    let kept: usize = mask.reduce_lifted(hc, crate::elem::Sum, |_, b| usize::from(b));

    // One message per kept element, from its part's primary holder.
    let new_layout = VectorLayout::linear(kept, old.grid(), Dist::Block);
    let mut packed = Vec::with_capacity(kept);
    let mut blocks = Vec::with_capacity(kept);
    for (part, chunk) in v.chunks().iter_segs().enumerate() {
        for (slot, &x) in chunk.iter().enumerate() {
            let i = old.dist().global_index(part, slot);
            if mask.get(i) {
                packed.push(x);
                blocks.push((
                    old.primary_node(part),
                    new_layout.primary_holder(positions.get(i)),
                    1,
                ));
            }
        }
    }
    charge_blocks(hc, blocks);
    DistVector::from_slice(new_layout, &packed)
}

/// The segmented-operator transform: associative on `(flag, value)`
/// whenever `op` is associative.
#[derive(Clone, Copy)]
struct Segmented<O> {
    op: O,
}

impl<T: Scalar, O: ReduceOp<T>> ReduceOp<(bool, T)> for Segmented<O> {
    fn identity(&self) -> (bool, T) {
        (false, self.op.identity())
    }
    fn combine(&self, a: (bool, T), b: (bool, T)) -> (bool, T) {
        if b.0 {
            b
        } else {
            (a.0, self.op.combine(a.1, b.1))
        }
    }
}

/// "Keep the first present value" — a sound monoid over `Option<T>`
/// (identity `None`, combine = left-biased `or`), used to spread a
/// segment's total backward over the segment.
#[derive(Clone, Copy)]
struct FirstSome;

impl<T: Scalar> ReduceOp<Option<T>> for FirstSome {
    fn identity(&self) -> Option<T> {
        None
    }
    fn combine(&self, a: Option<T>, b: Option<T>) -> Option<T> {
        a.or(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::{Max, Sum};
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Axis, Placement, ProcGrid, VectorLayout};

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    fn layouts(n: usize, dim: u32) -> Vec<VectorLayout> {
        let g = ProcGrid::square(Cube::new(dim));
        vec![
            VectorLayout::linear(n, g, Dist::Block),
            VectorLayout::aligned(n, g, Axis::Row, Placement::Replicated, Dist::Block),
            VectorLayout::aligned(n, g, Axis::Col, Placement::Replicated, Dist::Block),
        ]
    }

    #[test]
    fn inclusive_scan_matches_serial_prefix() {
        for n in [1usize, 7, 16, 33] {
            for dim in [0u32, 2, 4] {
                for layout in layouts(n, dim) {
                    let v = DistVector::from_fn(layout, |i| (i as i64) - 5);
                    let mut hc = machine(dim);
                    let s = scan_inclusive(&mut hc, &v, Sum);
                    s.assert_consistent();
                    let mut run = 0i64;
                    for i in 0..n {
                        run += i as i64 - 5;
                        assert_eq!(s.get(i), run, "n={n} dim={dim} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn exclusive_scan_is_shifted_inclusive() {
        let n = 21;
        for layout in layouts(n, 4) {
            let v = DistVector::from_fn(layout, |i| (i * i) as i64);
            let mut hc = machine(4);
            let e = scan_exclusive(&mut hc, &v, Sum);
            let mut run = 0i64;
            for i in 0..n {
                assert_eq!(e.get(i), run, "i = {i}");
                run += (i * i) as i64;
            }
        }
    }

    #[test]
    fn max_scan_gives_running_maximum() {
        let vals: Vec<i64> = (0..25).map(|i| ((i * 7919) % 37) as i64 - 18).collect();
        for layout in layouts(25, 4) {
            let v = DistVector::from_fn(layout, |i| vals[i]);
            let mut hc = machine(4);
            let s = scan_inclusive(&mut hc, &v, Max);
            let mut run = i64::MIN;
            for i in 0..25 {
                run = run.max(vals[i]);
                assert_eq!(s.get(i), run);
            }
        }
    }

    #[test]
    fn segmented_scan_restarts_at_flags() {
        let n = 20;
        let flag_at = |i: usize| i == 0 || i == 5 || i == 6 || i == 13;
        for layout in layouts(n, 4) {
            let v = DistVector::from_fn(layout, |i| (i + 1) as i64);
            let f = DistVector::from_fn(layout, flag_at);
            let mut hc = machine(4);
            let s = segmented_scan_inclusive(&mut hc, &v, &f, Sum);
            s.assert_consistent();
            let mut run = 0i64;
            for i in 0..n {
                if flag_at(i) {
                    run = 0;
                }
                run += (i + 1) as i64;
                assert_eq!(s.get(i), run, "i = {i}");
            }
        }
    }

    #[test]
    fn segmented_scan_with_single_segment_equals_plain_scan() {
        let n = 17;
        for layout in layouts(n, 2) {
            let v = DistVector::from_fn(layout, |i| i as i64 * 2 - 9);
            let f = DistVector::from_fn(layout, |i| i == 0);
            let mut hc = machine(2);
            let seg = segmented_scan_inclusive(&mut hc, &v, &f, Sum);
            let plain = scan_inclusive(&mut hc, &v, Sum);
            assert_eq!(seg.to_dense(), plain.to_dense());
        }
    }

    #[test]
    fn segmented_reduce_spreads_segment_totals() {
        let n = 15;
        let flag_at = |i: usize| i == 0 || i == 4 || i == 9;
        for layout in layouts(n, 4) {
            let v = DistVector::from_fn(layout, |i| (i + 1) as i64);
            let f = DistVector::from_fn(layout, flag_at);
            let mut hc = machine(4);
            let r = segmented_reduce(&mut hc, &v, &f, Sum);
            r.assert_consistent();
            // Segments: [0,4), [4,9), [9,15). Totals: 1+2+3+4=10;
            // 5..=9 sum 35; 10..=15 sum 75.
            let expect = |i: usize| -> i64 {
                if i < 4 {
                    10
                } else if i < 9 {
                    35
                } else {
                    75
                }
            };
            for i in 0..n {
                assert_eq!(r.get(i), expect(i), "i = {i}");
            }
        }
    }

    #[test]
    fn enumerate_counts_preceding_trues() {
        let n = 17;
        let keep = |i: usize| i % 3 == 0 || i == 5;
        for layout in layouts(n, 4) {
            let mask = DistVector::from_fn(layout, keep);
            let mut hc = machine(4);
            let e = enumerate(&mut hc, &mask);
            let mut count = 0usize;
            for i in 0..n {
                assert_eq!(e.get(i), count, "i = {i}");
                if keep(i) {
                    count += 1;
                }
            }
        }
    }

    #[test]
    fn pack_compresses_in_order() {
        let n = 23;
        let keep = |i: usize| i % 4 != 1;
        let g = ProcGrid::square(Cube::new(4));
        let layout = VectorLayout::linear(n, g, Dist::Block);
        let v = DistVector::from_fn(layout, |i| (i * 10) as i64);
        let mask = DistVector::from_fn(layout, keep);
        let mut hc = machine(4);
        let packed = pack(&mut hc, &v, &mask);
        packed.assert_consistent();
        let expect: Vec<i64> = (0..n).filter(|&i| keep(i)).map(|i| (i * 10) as i64).collect();
        assert_eq!(packed.to_dense(), expect);
        assert_eq!(packed.n(), expect.len());
    }

    #[test]
    fn pack_everything_and_nothing() {
        let n = 12;
        let g = ProcGrid::square(Cube::new(2));
        let layout = VectorLayout::linear(n, g, Dist::Block);
        let v = DistVector::from_fn(layout, |i| i as i64);
        let mut hc = machine(2);
        let all = pack(&mut hc, &v, &DistVector::constant(layout, true));
        assert_eq!(all.to_dense(), (0..n as i64).collect::<Vec<_>>());
        let none = pack(&mut hc, &v, &DistVector::constant(layout, false));
        assert_eq!(none.n(), 0);
        assert!(none.to_dense().is_empty());
    }

    #[test]
    fn reverse_reverses() {
        for layout in layouts(13, 4) {
            let v = DistVector::from_fn(layout, |i| i as i64);
            let mut hc = machine(4);
            let r = reverse(&mut hc, &v);
            r.assert_consistent();
            assert_eq!(r.to_dense(), (0..13).rev().collect::<Vec<i64>>());
        }
    }

    #[test]
    #[should_panic(expected = "position 7 is never reached")]
    fn uncovered_last_position_without_fill_panics() {
        let g = ProcGrid::square(Cube::new(2));
        let v = DistVector::from_fn(VectorLayout::linear(8, g, Dist::Block), |i| i as i64);
        let _ = route_permutation(&mut machine(2), &v, |i| i.checked_sub(1), None);
    }

    #[test]
    #[should_panic(expected = "position 0 is reached twice")]
    fn position_reached_twice_panics() {
        let g = ProcGrid::square(Cube::new(2));
        let v = DistVector::from_fn(VectorLayout::linear(8, g, Dist::Block), |i| i as i64);
        let _ = route_permutation(&mut machine(2), &v, |i| Some(i / 2), Some(0));
    }

    #[test]
    #[should_panic(expected = "block (consecutive) distribution")]
    fn cyclic_scan_is_rejected() {
        let g = ProcGrid::square(Cube::new(2));
        let v = DistVector::from_fn(VectorLayout::linear(8, g, Dist::Cyclic), |i| i as i64);
        let mut hc = machine(2);
        let _ = scan_inclusive(&mut hc, &v, Sum);
    }
}
