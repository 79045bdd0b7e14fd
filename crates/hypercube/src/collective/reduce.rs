//! All-to-one reduction and all-reduce within subcubes.

use super::check_dims;
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
/// [`NodeSlab::pair_mut`] — no buffer is taken, cloned, or reallocated
/// until one final compaction pass.
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

    // Live lengths: a sender's segment is logically consumed (the slab
    // keeps its stale bytes until the final compaction).
    let mut lens: Vec<usize> = (0..slab.p()).map(|n| slab.len_of(n)).collect();
    for j in (0..k).rev() {
        let bit = 1usize << j;
        // Senders: relative coordinate x in [2^j, 2^{j+1}).
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        for node in cube.iter_nodes() {
            let x = cube.extract_coords(node, dims) ^ root_coord;
            if x >= bit && x < bit << 1 {
                let partner = cube.neighbor(node, dims[j]);
                let len = lens[node];
                max_len = max_len.max(len);
                total += len as u64;
                pairs.push((node, partner));
            }
        }
        for &(src, dst) in &pairs {
            let sent_len = lens[src];
            assert_eq!(
                sent_len, lens[dst],
                "reduce requires equal buffer lengths within a subcube"
            );
            lens[src] = 0;
            let (s, d) = slab.pair_mut(src, dst);
            for (acc, &v) in d[..sent_len].iter_mut().zip(&s[..sent_len]) {
                *acc = op(*acc, v);
            }
        }
        match algo {
            Algo::SinglePort => {
                hc.charge_exchange_step(&pairs, max_len, total);
                hc.charge_flops(max_len);
            }
            Algo::AllPort { .. } => allport_total += total,
        }
    }
    if let Algo::AllPort { chunks } = algo {
        hc.charge_allport(Collective::Reduce, k, slab.max_seg_len(), chunks, allport_total);
    }

    // Compact: roots keep their combined segment, everyone else empties.
    let mut out = NodeSlab::with_capacity(slab.p(), lens.iter().sum());
    for node in 0..slab.p() {
        out.push_seg(&slab[node][..lens[node]]);
    }
    slab.swap(&mut out);
}

/// All-reduce over a flat [`NodeSlab`]: after the call every segment in
/// a subcube holds the elementwise `op`-combination of all of them.
///
/// Butterfly exchange: `|dims|` supersteps of pairwise exchange+combine,
/// `alpha + (beta + gamma) * L` each — same time as [`reduce_slab`] but
/// the result is replicated, which is how a row/column reduction keeps a
/// vector aligned with the grid (no separate broadcast needed). Fully in
/// place: the only writes are the combines themselves.
pub fn allreduce_slab<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());

    let algo = hc.choose_algo(Collective::Allreduce, dims.len(), slab.max_seg_len());
    let mut allport_total: u64 = 0;
    // Uniform segment lengths (the common balanced-layout case) take the
    // block-combine fast path: one straight-line pass per dimension via
    // [`NodeSlab::butterfly_combine`], bit-identical to the per-pair
    // loop but without per-pair offset lookups.
    let uniform = slab.uniform_seg_len().filter(|&l| l > 0);

    for &d in dims {
        let bit = 1usize << d;
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        // Process each pair once: the node with the d-bit clear drives.
        for node in cube.iter_nodes() {
            if node & bit != 0 {
                continue;
            }
            let partner = node | bit;
            pairs.push((node, partner));
            assert_eq!(
                slab.len_of(node),
                slab.len_of(partner),
                "allreduce requires equal buffer lengths within a subcube"
            );
            let len = slab.len_of(node);
            max_len = max_len.max(len);
            total += 2 * len as u64;
            if uniform.is_none() {
                let (lo, hi) = slab.pair_mut(node, partner);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let combined = op(*a, *b);
                    *a = combined;
                    *b = combined;
                }
            }
        }
        if uniform.is_some() {
            slab.butterfly_combine(bit, &op);
        }
        match algo {
            Algo::SinglePort => {
                hc.charge_exchange_step(&pairs, max_len, total);
                hc.charge_flops(max_len);
            }
            Algo::AllPort { .. } => allport_total += total,
        }
    }
    if let Algo::AllPort { chunks } = algo {
        hc.charge_allport(
            Collective::Allreduce,
            dims.len(),
            slab.max_seg_len(),
            chunks,
            allport_total,
        );
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
    #[should_panic(expected = "equal buffer lengths")]
    fn ragged_buffers_panic() {
        let mut hc = unit_machine(2);
        let mut locals = slab_from_fn(&hc, |n| vec![0u8; n]);
        reduce_slab(&mut hc, &mut locals, &[0, 1], 0, |a, b| a + b);
    }
}
