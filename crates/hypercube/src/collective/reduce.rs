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
/// The host computes each subcube's combine tree once
/// ([`allreduce_to_representatives`]), then copies the result out.
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
    allreduce_to_representatives(hc, slab, dims, op);
    let mask = hc.cube().dims_mask(dims);
    *slab = NodeSlab::build(slab.p(), slab.total_len(), |node, buf| {
        buf.extend_from_slice(&slab[node & !mask]);
    });
}

/// [`allreduce_slab`] without its copy-out, charged the same: only each
/// subcube's representative, its member with every `dims` bit clear,
/// holds the result; the others hold partial combines. After butterfly
/// step `j` every member of a `dims[0..=j]` sub-subcube holds the same
/// bits, so at step `j` only the nodes whose bits `dims[0..=j]` are all
/// zero combine `op(lo, lo | chan)`: the butterfly's operands, in its
/// order, from `p - p / 2^{|dims|}` combines per slot, not `p·|dims|/2`.
///
/// # Panics
/// As [`allreduce_slab`].
pub fn allreduce_to_representatives<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    let p = slab.p();
    // The combine tree folds every other member into a node of its
    // subcube exactly once, and `fold_seg` asserts the two lengths agree,
    // so the representatives' lengths are all the lengths there are.
    let mask = cube.dims_mask(dims);
    let max_len = nodes_where(p, mask, 0).map(|rep| slab.len_of(rep)).max().unwrap_or(0);
    let total = slab.total_len() as u64;

    let mut combined = 0usize;
    for &d in dims {
        let chan = 1usize << d;
        combined |= chan;
        for lo in nodes_where(p, combined, 0) {
            slab.fold_seg(lo, lo | chan, &op);
        }
    }
    charge_allreduce(hc, dims, max_len, total);
}

/// All-reduce of one value per node over `dims` on a machine whose
/// subcubes all hold the same values — the replicas of a replicated
/// vector's grid line, or the one subcube `dims` spans when it is the
/// whole cube. Returns the value every node holds afterwards.
///
/// The host evaluates one subcube's combine tree: `leaves` yields
/// `(coordinate, value)` in ascending subcube coordinate (see
/// [`crate::Cube::extract_coords`]) for the members whose value is not
/// `identity`; every other member holds `identity`. Operands and their
/// order are [`allreduce_slab`]'s, so the result bits are those of the
/// butterfly on a one-element slab. An all-identity subtree at level `j`
/// folds to the same `e_j` everywhere, so it is computed once per level:
/// the host makes `O(leaves × |dims|)` combines, not `O(p)`.
///
/// Charged exactly as [`allreduce_slab`] on a one-element segment per
/// node, on every subcube.
///
/// # Panics
/// Panics on an invalid `dims`, or if the coordinates are not strictly
/// ascending and below `2^{|dims|}`.
pub fn allreduce_scalar<T: Copy>(
    hc: &mut Hypercube,
    dims: &[u32],
    identity: T,
    leaves: impl IntoIterator<Item = (usize, T)>,
    op: impl Fn(T, T) -> T,
) -> T {
    check_dims(hc.cube(), dims);
    let mut level: Vec<(usize, T)> = leaves.into_iter().collect();
    assert!(
        level.windows(2).all(|w| w[0].0 < w[1].0)
            && level.last().is_none_or(|&(c, _)| c >> dims.len() == 0),
        "allreduce_scalar: coordinates must be ascending and inside the subcube"
    );
    // `level` holds the level-`j` subtrees that are not all identity,
    // keyed by their coordinate shifted right by `j`; `e` is `e_j`.
    let mut e = identity;
    for _ in dims {
        let (mut read, mut write) = (0, 0);
        while read < level.len() {
            let (c, v) = level[read];
            let folded = match level.get(read + 1) {
                Some(&(hi, w)) if c & 1 == 0 && hi == c | 1 => {
                    read += 1;
                    op(v, w)
                }
                _ if c & 1 == 0 => op(v, e),
                _ => op(e, v),
            };
            level[write] = (c >> 1, folded);
            (read, write) = (read + 1, write + 1);
        }
        level.truncate(write);
        e = op(e, e);
    }
    charge_allreduce(hc, dims, 1, hc.p() as u64);
    level.first().map_or(e, |&(_, v)| v)
}

/// The all-reduce's charge over `dims`: the butterfly's `|dims|`
/// supersteps, each an exchange over every channel pair of the step's
/// dimension with `max_len` elements on the busiest channel and `total`
/// machine-wide, then `max_len` combines; or, where the machine picks
/// it, the ported schedule.
fn charge_allreduce(hc: &mut Hypercube, dims: &[u32], max_len: usize, total: u64) {
    let p = hc.p();
    match hc.choose_algo(Collective::Allreduce, dims.len(), max_len) {
        Algo::SinglePort => {
            for &d in dims {
                hc.charge_exchange_step(channel_pairs(p, 1usize << d), max_len, total);
                hc.charge_flops(max_len);
            }
        }
        Algo::AllPort { chunks } => {
            let total = total * dims.len() as u64;
            hc.charge_allport(Collective::Allreduce, dims.len(), max_len, chunks, total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{labelled_locals, slab_from_fn, unit_machine};
    use super::*;
    use crate::cost::CostModel;
    use crate::topology::Cube;

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

    /// Without the copy-out, each subcube's representative (every `dims`
    /// bit clear) holds the all-reduce's bits, under a non-commutative
    /// op and a non-contiguous dim set, and the charge is the same.
    #[test]
    fn representatives_hold_the_allreduce_result() {
        let op = |a: f64, b: f64| a - 0.5 * b;
        let dims = [2u32, 0];
        let (mut hc_all, mut hc_rep) = (unit_machine(4), unit_machine(4));
        let mut all = labelled_locals(&hc_all, 3);
        let mut reps = all.clone();
        allreduce_slab(&mut hc_all, &mut all, &dims, op);
        allreduce_to_representatives(&mut hc_rep, &mut reps, &dims, op);
        for rep in (0..16).filter(|n| n & 0b101 == 0) {
            assert_eq!(reps[rep], all[rep], "representative {rep}");
        }
        assert_eq!(hc_rep.ticks(), hc_all.ticks());
        assert_eq!(hc_rep.counters(), hc_all.counters());
    }

    /// One subcube's values through `allreduce_scalar` against the
    /// one-element slab through `allreduce_slab`: same result bits (under
    /// a non-commutative op, with gaps whose "identity" the op moves, so
    /// each level's `e_j` differs) and the same charge, in any dim order,
    /// whole cube or one subcube of many.
    #[test]
    fn allreduce_scalar_matches_the_one_element_slab() {
        let op = |a: f64, b: f64| a - 0.5 * b;
        for cost in [CostModel::cm2(), CostModel::cm2_allport()] {
            for dims in [vec![], vec![1], vec![0, 1, 2, 3], vec![3, 0, 2], vec![2, 1]] {
                let cube = Cube::new(4);
                let cases = [0usize, 0b1011, 0xffff, 0b100_0000_0001]
                    .into_iter()
                    .flat_map(|present| [(present, -0.0), (present, 1.0)]);
                for (present, identity) in cases {
                    // Leaf `c` is present when bit `c` of `present` is set:
                    // every subcube holds the same values.
                    let value = |c: usize| (c as f64).mul_add(0.37, 1.0);
                    let at = |n: usize| {
                        let c = cube.extract_coords(n, &dims);
                        if present >> c & 1 == 1 {
                            value(c)
                        } else {
                            identity
                        }
                    };
                    let mut hc_ref = Hypercube::new(4, cost);
                    let mut slab = NodeSlab::build(16, 16, |n, out| out.push(at(n)));
                    allreduce_slab(&mut hc_ref, &mut slab, &dims, op);
                    let mut hc = Hypercube::new(4, cost);
                    let leaves = (0..1usize << dims.len())
                        .filter(|c| present >> c & 1 == 1)
                        .map(|c| (c, value(c)));
                    let got = allreduce_scalar(&mut hc, &dims, identity, leaves, op);
                    let what = format!("{cost:?} dims {dims:?} present {present:#b} e {identity}");
                    for n in 0..16 {
                        assert_eq!(slab[n][0].to_bits(), got.to_bits(), "{what} node {n}");
                    }
                    assert_eq!(hc.ticks(), hc_ref.ticks(), "{what}");
                    assert_eq!(hc.counters(), hc_ref.counters(), "{what}");
                }
            }
        }
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
