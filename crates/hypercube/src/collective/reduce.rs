//! All-to-one reduction and all-reduce within subcubes.

use super::{channel_pairs, check_dims, nodes_where};
use crate::cost::{Algo, Collective};
use crate::machine::Hypercube;
use crate::slab::NodeSlab;

/// Reduce over a flat [`NodeSlab`]: within every subcube spanned by
/// `dims`, the equal-length segments of all members are combined
/// elementwise with the **commutative associative** operator `op`,
/// leaving the result in the segment of the node at subcube coordinate
/// `root_coord` and emptying every other member's segment.
///
/// Reverse spanning-binomial-tree: `|dims|` supersteps, each costing
/// `alpha + (beta + gamma) * L`. Combines run in place through
/// `NodeSlab::fold_seg` — no buffer is taken, cloned, or reallocated;
/// one final [`NodeSlab::retain_segs`] pass empties the non-roots.
///
/// # Panics
/// Panics if the segments within a subcube have different lengths, or on
/// an invalid `dims`/`root_coord`.
pub fn reduce_slab<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    root_coord: usize,
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    let k = dims.len();
    assert!(root_coord < (1usize << k), "root coordinate out of range");
    assert_eq!(slab.p(), cube.nodes());
    if k == 0 {
        return;
    }

    let algo = hc.choose_algo(Collective::Reduce, k, slab.max_seg_len());
    let mut allport_total: u64 = 0;
    let p = slab.p();
    let root_bits = cube.deposit_coords(root_coord, dims);

    // A node sends once, at the step of the top bit of its coordinate
    // relative to the root, and until then holds its whole segment, so
    // every length read here is the node's original one.
    for j in (0..k).rev() {
        let chan = 1usize << dims[j];
        // Senders: relative coordinate in [2^j, 2^{j+1}), i.e. bit
        // `dims[j]` differs from the root's and bits `dims[j+1..]` agree.
        let side = cube.dims_mask(&dims[j + 1..]) | chan;
        let senders = nodes_where(p, side, (root_bits ^ chan) & side);
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        for src in senders.clone() {
            let len = slab.len_of(src);
            assert_eq!(
                len,
                slab.len_of(src ^ chan),
                "reduce requires equal buffer lengths within a subcube"
            );
            max_len = max_len.max(len);
            total += len as u64;
            slab.fold_seg(src ^ chan, src, &op);
        }
        match algo {
            Algo::SinglePort => {
                hc.charge_exchange_step(senders.map(|src| (src, src ^ chan)), max_len, total);
                hc.charge_flops(max_len);
            }
            Algo::AllPort { .. } => allport_total += total,
        }
    }
    if let Algo::AllPort { chunks } = algo {
        hc.charge_allport(Collective::Reduce, k, slab.max_seg_len(), chunks, allport_total);
    }

    // Roots keep their combined segment, everyone else empties.
    let mask = cube.dims_mask(dims);
    slab.retain_segs(|node| node & mask == root_bits);
}

/// All-reduce over a flat [`NodeSlab`]: after the call every segment in
/// a subcube holds the elementwise `op`-combination of all of them.
///
/// Charged as the butterfly exchange: `|dims|` supersteps of pairwise
/// exchange+combine, `alpha + (beta + gamma) * L` each — same time as
/// [`reduce_slab`] but the result is replicated, which is how a row/column
/// reduction keeps a vector aligned with the grid (no separate broadcast
/// needed). Every step is charged from the longest and the total segment
/// length: a butterfly step moves every segment once each way.
///
/// The host computes each subcube's combine tree once. After butterfly
/// step `j` every member of a `dims[0..=j]` sub-subcube holds the same
/// bits, so at step `j` only the nodes whose bits `dims[0..=j]` are all
/// zero combine `op(lo, lo | chan)` — the butterfly's own operands, in
/// its own order — and one final pass copies each subcube's result to
/// its other members. Payload bits are the butterfly's, from
/// `p - p / 2^{|dims|}` combines per element slot where the butterfly
/// made `p * |dims| / 2`.
///
/// # Panics
/// Panics if the segments within a subcube have different lengths, or on
/// an invalid `dims`.
pub fn allreduce_slab<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    let p = slab.p();
    // A subcube's representative is its member with every `dims` bit
    // clear: the node the last combine writes. The combine tree folds
    // every other member into a node of its subcube exactly once, and
    // `fold_seg` asserts the two lengths agree, so the representatives'
    // lengths are all the lengths there are.
    let mask = cube.dims_mask(dims);
    let max_len = nodes_where(p, mask, 0).map(|rep| slab.len_of(rep)).max().unwrap_or(0);
    let total = slab.total_len() as u64;

    let algo = hc.choose_algo(Collective::Allreduce, dims.len(), max_len);
    let mut allport_total: u64 = 0;
    let mut combined = 0usize;
    for &d in dims {
        let chan = 1usize << d;
        combined |= chan;
        for lo in nodes_where(p, combined, 0) {
            slab.fold_seg(lo, lo | chan, &op);
        }
        match algo {
            Algo::SinglePort => {
                hc.charge_exchange_step(channel_pairs(p, chan), max_len, total);
                hc.charge_flops(max_len);
            }
            Algo::AllPort { .. } => allport_total += total,
        }
    }
    if let Algo::AllPort { chunks } = algo {
        hc.charge_allport(Collective::Allreduce, dims.len(), max_len, chunks, allport_total);
    }

    // Copy out. A subcube's members come in runs of `2^t` consecutive
    // nodes, `t` being how many of the lowest address bits `dims` spans:
    // each run's first node takes the result, then the run fills itself.
    let run = 1usize << mask.trailing_ones();
    for first in (0..p).step_by(run) {
        if first & mask != 0 {
            slab.copy_seg(first & !mask, first);
        }
        slab.fill_run(first, run);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{labelled_locals, slab_from_fn, unit_machine};
    use super::*;

    #[test]
    fn reduce_whole_cube_sums() {
        let mut hc = unit_machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let mut locals = labelled_locals(&hc, 3);
        let expected: Vec<f64> =
            (0..3).map(|i| (0..16).map(|n| (n * 1000 + i) as f64).sum()).collect();
        reduce_slab(&mut hc, &mut locals, &dims, 0, |a, b| a + b);
        assert_eq!(locals[0], expected);
        for n in 1..16 {
            assert!(locals[n].is_empty(), "non-root buffers cleared");
        }
        assert_eq!(hc.counters().message_steps, 4);
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let mut hc = unit_machine(3);
        let mut locals = slab_from_fn(&hc, |n| vec![n as u64]);
        reduce_slab(&mut hc, &mut locals, &[0, 1, 2], 6, |a, b| a + b);
        assert_eq!(locals[6], vec![(0..8).sum::<u64>()]);
    }

    #[test]
    fn reduce_min_within_columns() {
        // dims {2,3} reduce over rows of a 4x4 grid: per column minimum.
        let mut hc = unit_machine(4);
        let col_dims = [2u32, 3];
        let mut locals = slab_from_fn(&hc, |n| vec![((n * 7919) % 97) as i64]);
        let expected: Vec<i64> = (0..4)
            .map(|col| (0..4).map(|row| (((row << 2 | col) * 7919) % 97) as i64).min().unwrap())
            .collect();
        reduce_slab(&mut hc, &mut locals, &col_dims, 0, i64::min);
        for col in 0..4usize {
            assert_eq!(locals[col], vec![expected[col]], "column {col}");
        }
    }

    #[test]
    fn allreduce_replicates_result_everywhere() {
        let mut hc = unit_machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let mut locals = labelled_locals(&hc, 2);
        let expected: Vec<f64> =
            (0..2).map(|i| (0..16).map(|n| (n * 1000 + i) as f64).sum()).collect();
        allreduce_slab(&mut hc, &mut locals, &dims, |a, b| a + b);
        for n in 0..16 {
            assert_eq!(locals[n], expected, "node {n}");
        }
        assert_eq!(hc.counters().message_steps, 4);
    }

    #[test]
    fn allreduce_subcube_independence() {
        // allreduce along dim {0} only: pairs (2k, 2k+1) sum privately.
        let mut hc = unit_machine(3);
        let mut locals = slab_from_fn(&hc, |n| vec![n as u64]);
        allreduce_slab(&mut hc, &mut locals, &[0], |a, b| a + b);
        for n in 0..8usize {
            let pair_sum = ((n & !1) + (n | 1)) as u64;
            assert_eq!(locals[n], vec![pair_sum]);
        }
    }

    #[test]
    fn reduce_and_allreduce_agree() {
        let mut hc1 = unit_machine(5);
        let dims: Vec<u32> = hc1.cube().iter_dims().collect();
        let mut a = slab_from_fn(&hc1, |n| vec![(n as f64).sin(); 4]);
        let mut b = a.clone();
        reduce_slab(&mut hc1, &mut a, &dims, 0, |x, y| x + y);
        let mut hc2 = unit_machine(5);
        allreduce_slab(&mut hc2, &mut b, &dims, |x, y| x + y);
        for (x, y) in a[0].iter().zip(&b[0]) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn reduce_empty_dims_is_noop() {
        let mut hc = unit_machine(3);
        let mut locals = slab_from_fn(&hc, |n| vec![n as u64]);
        let before = locals.clone();
        reduce_slab(&mut hc, &mut locals, &[], 0, |a, b| a + b);
        assert_eq!(locals, before);
    }

    #[test]
    fn slab_reduce_bitwise_matches_reference() {
        use super::super::reference;
        let dims = [0u32, 1, 3];
        let mut hc1 = unit_machine(4);
        let mut a: Vec<Vec<f64>> = (0..hc1.p()).map(|n| vec![(n as f64).sin(); 5]).collect();
        let mut b = NodeSlab::from_nested(&a);
        reference::reduce(&mut hc1, &mut a, &dims, 2, |x, y| x + y);
        let mut hc2 = unit_machine(4);
        reduce_slab(&mut hc2, &mut b, &dims, 2, |x, y| x + y);
        assert_eq!(b.to_nested(), a, "payload bit-identical (same combine order)");
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }

    #[test]
    #[should_panic(expected = "equal segment lengths")]
    fn allreduce_rejects_ragged_subcubes() {
        // Node 6 is the only member of its {0, 1} subcube with a longer
        // segment; the combine tree still meets it.
        let mut hc = unit_machine(3);
        let mut locals = slab_from_fn(&hc, |n| vec![0u8; 1 + usize::from(n == 6)]);
        allreduce_slab(&mut hc, &mut locals, &[0, 1], |a, b| a + b);
    }

    #[test]
    #[should_panic(expected = "equal buffer lengths")]
    fn ragged_buffers_panic() {
        let mut hc = unit_machine(2);
        let mut locals = slab_from_fn(&hc, |n| vec![0u8; n]);
        reduce_slab(&mut hc, &mut locals, &[0, 1], 0, |a, b| a + b);
    }
}
