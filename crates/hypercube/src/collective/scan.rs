//! Parallel prefix (scan) within subcubes.
//!
//! Scans are the signature Connection Machine operation (Blelloch's scan
//! model); the Gaussian-elimination and simplex applications use them for
//! index arithmetic and the benchmark harness uses them as a collective
//! baseline. Order is subcube **coordinate order** (the packed value of
//! the node's bits at `dims`).
//!
//! The slab versions avoid the seed's up-front full copy of the inputs:
//! the inclusive scan *fuses* the first butterfly step into the
//! construction of the running-totals slab (after step 0 both partners'
//! totals are `op(lo, hi)`, so totals can be built fresh instead of
//! copied then overwritten), and the exclusive scan *moves* the input
//! slab into the totals role, allocating only the identity-filled prefix
//! buffer the seed allocated anyway. Combine order is unchanged, so
//! results are bit-identical.

use super::{channel_pairs, check_dims};
use crate::cost::{Algo, Collective};
use crate::machine::Hypercube;
use crate::slab::NodeSlab;

/// The classic `(prefix, totals)` butterfly, steps `start..`, exactly as
/// the seed runs it (same pair order, same combine expressions). Charges
/// per superstep under [`Algo::SinglePort`]; under [`Algo::AllPort`]
/// nothing is charged here and the machine-wide element total of the
/// walked steps is returned for the caller's schedule charge.
fn butterfly_steps<T: Copy>(
    hc: &mut Hypercube,
    prefix: &mut NodeSlab<T>,
    totals: &mut NodeSlab<T>,
    dims: &[u32],
    start: usize,
    op: &impl Fn(T, T) -> T,
    algo: Algo,
) -> u64 {
    let mut skipped_total: u64 = 0;
    let p = totals.p();
    for &d in dims.iter().skip(start) {
        let chan = 1usize << d;
        let mut max_len = 0usize;
        let mut total_elems: u64 = 0;
        for (node, partner) in channel_pairs(p, chan) {
            let len = totals.len_of(node);
            assert_eq!(len, totals.len_of(partner), "scan requires equal buffer lengths");
            max_len = max_len.max(len);
            total_elems += 2 * len as u64;

            let (lo_total, hi_total) = totals.pair_mut(node, partner);
            let hi_prefix = prefix.seg_mut(partner);

            // The partner (coordinate bit j set) is "upper": the lower
            // node's total is a prefix for it.
            for i in 0..len {
                let lo_v = lo_total[i];
                let hi_v = hi_total[i];
                let combined = op(lo_v, hi_v);
                lo_total[i] = combined;
                hi_total[i] = combined;
                // Upper node folds the lower subcube's total into its prefix.
                hi_prefix[i] = op(lo_v, hi_prefix[i]);
            }
        }
        match algo {
            Algo::SinglePort => {
                hc.charge_exchange_step(channel_pairs(p, chan), max_len, total_elems);
                hc.charge_flops(2 * max_len);
            }
            Algo::AllPort { .. } => skipped_total += total_elems,
        }
    }
    skipped_total
}

/// Inclusive scan over a flat [`NodeSlab`]: after the call, the segment
/// at coordinate `c` holds the elementwise `op`-combination of the
/// segments of coordinates `0..=c`.
///
/// Classic hypercube scan maintaining `(prefix, total)`: `|dims|`
/// supersteps, each `alpha + (beta + 2*gamma) * L`.
///
/// `op` must be associative; it need not be commutative (combination
/// order follows coordinate order).
pub fn scan_inclusive_slab<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    if dims.is_empty() {
        return;
    }
    let algo = hc.choose_algo(Collective::Scan, dims.len(), slab.max_seg_len());
    let seg_len = slab.max_seg_len();

    // Fused step 0: after it, both partners' totals are op(lo, hi) and
    // the upper prefix is op(lo, hi) too — so the totals slab is built
    // fresh (no input copy), then the upper prefixes are combined in
    // place.
    let chan0 = 1usize << dims[0];
    let p = slab.p();
    let mut max_len = 0usize;
    let mut total_elems: u64 = 0;
    for (node, partner) in channel_pairs(p, chan0) {
        let len = slab.len_of(node);
        assert_eq!(len, slab.len_of(partner), "scan requires equal buffer lengths");
        max_len = max_len.max(len);
        total_elems += 2 * len as u64;
    }
    let mut totals = NodeSlab::with_capacity(slab.p(), slab.total_len());
    for node in 0..slab.p() {
        let lo = &slab[node & !chan0];
        let hi = &slab[node | chan0];
        totals.push_seg_with(|data| {
            data.extend(lo.iter().zip(hi).map(|(&x, &y)| op(x, y)));
        });
    }
    for (lo, hi) in channel_pairs(p, chan0) {
        let (lo_s, hi_s) = slab.pair_mut(lo, hi);
        for (x, y) in lo_s.iter().zip(hi_s.iter_mut()) {
            *y = op(*x, *y);
        }
    }
    let mut skipped_total: u64 = 0;
    match algo {
        Algo::SinglePort => {
            hc.charge_exchange_step(channel_pairs(p, chan0), max_len, total_elems);
            hc.charge_flops(2 * max_len);
        }
        Algo::AllPort { .. } => skipped_total += total_elems,
    }

    skipped_total += butterfly_steps(hc, slab, &mut totals, dims, 1, &op, algo);
    if let Algo::AllPort { chunks } = algo {
        hc.charge_allport(Collective::Scan, dims.len(), seg_len, chunks, skipped_total);
    }
}

/// Exclusive scan over a flat [`NodeSlab`] with `identity`: coordinate
/// `c` ends with the combination of coordinates `0..c` (coordinate 0
/// gets `identity`).
pub fn scan_exclusive_slab<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    identity: T,
    op: impl Fn(T, T) -> T,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    // The inputs become the running totals wholesale (no copy); the
    // prefix buffer starts as the identity everywhere.
    let algo = hc.choose_algo(Collective::Scan, dims.len(), slab.max_seg_len());
    let seg_len = slab.max_seg_len();
    let lens: Vec<usize> = (0..slab.p()).map(|n| slab.len_of(n)).collect();
    let mut totals = std::mem::replace(slab, NodeSlab::filled(&lens, identity));
    let skipped_total = butterfly_steps(hc, slab, &mut totals, dims, 0, &op, algo);
    if let Algo::AllPort { chunks } = algo {
        hc.charge_allport(Collective::Scan, dims.len(), seg_len, chunks, skipped_total);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{slab_from_fn, unit_machine};
    use super::*;

    #[test]
    fn inclusive_scan_whole_cube_matches_serial_prefix() {
        let mut hc = unit_machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let mut locals = slab_from_fn(&hc, |n| vec![n as u64, (n * n) as u64]);
        scan_inclusive_slab(&mut hc, &mut locals, &dims, |a, b| a + b);
        let mut run0 = 0u64;
        let mut run1 = 0u64;
        for n in 0..16u64 {
            run0 += n;
            run1 += n * n;
            assert_eq!(locals[n as usize], vec![run0, run1], "node {n}");
        }
        assert_eq!(hc.counters().message_steps, 4);
    }

    #[test]
    fn exclusive_scan_matches_shifted_inclusive() {
        let mut hc = unit_machine(3);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let mut locals = slab_from_fn(&hc, |n| vec![(n + 1) as i64]);
        scan_exclusive_slab(&mut hc, &mut locals, &dims, 0, |a, b| a + b);
        let mut run = 0i64;
        for n in 0..8usize {
            assert_eq!(locals[n], vec![run], "node {n}");
            run += (n + 1) as i64;
        }
    }

    #[test]
    fn scan_respects_subcube_boundaries() {
        // Scan along dims {1,2} within each pair-of-dims subcube; dim 0
        // distinguishes two independent scans.
        let mut hc = unit_machine(3);
        let dims = [1u32, 2];
        let mut locals = slab_from_fn(&hc, |n| vec![n as u64]);
        scan_inclusive_slab(&mut hc, &mut locals, &dims, |a, b| a + b);
        for low_bit in 0..2usize {
            let mut run = 0u64;
            for c in 0..4usize {
                let node = low_bit | (c << 1);
                run += node as u64;
                assert_eq!(locals[node], vec![run], "node {node}");
            }
        }
    }

    #[test]
    fn scan_with_noncommutative_op_follows_coordinate_order() {
        // Affine-map composition: (a, b) represents x -> a*x + b, and
        // op(f, g) = "f then g" — associative but NOT commutative, so this
        // detects any ordering mistake in the butterfly.
        let compose = |f: (i64, i64), g: (i64, i64)| (f.0 * g.0, f.1 * g.0 + g.1);
        let maps: Vec<(i64, i64)> = (0..8).map(|n| (n % 3 + 1, n - 4)).collect();
        let mut hc = unit_machine(3);
        let dims = [0u32, 1, 2];
        let mut locals = slab_from_fn(&hc, |n| vec![maps[n]]);
        scan_inclusive_slab(&mut hc, &mut locals, &dims, compose);
        let mut run = (1i64, 0i64); // identity map
        for n in 0..8usize {
            run = compose(run, maps[n]);
            assert_eq!(locals[n], vec![run], "node {n}");
        }
    }

    #[test]
    fn scan_max_gives_running_maximum() {
        let mut hc = unit_machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let vals: Vec<i64> = (0..16).map(|n| ((n * 7919) % 31) as i64 - 15).collect();
        let mut locals = slab_from_fn(&hc, |n| vec![vals[n]]);
        scan_inclusive_slab(&mut hc, &mut locals, &dims, i64::max);
        let mut run = i64::MIN;
        for n in 0..16 {
            run = run.max(vals[n]);
            assert_eq!(locals[n], vec![run]);
        }
    }

    #[test]
    fn empty_dims_scan_is_noop() {
        let mut hc = unit_machine(2);
        let mut locals = slab_from_fn(&hc, |n| vec![n as u64]);
        let before = locals.clone();
        scan_inclusive_slab(&mut hc, &mut locals, &[], |a, b| a + b);
        assert_eq!(locals, before);
        assert_eq!(hc.elapsed_us(), 0.0);
    }

    #[test]
    fn slab_scans_bitwise_match_reference() {
        use super::super::reference;
        let dims = [2u32, 0];
        // Inclusive, on floats (combine-order sensitive).
        let mut hc1 = unit_machine(3);
        let mut a: Vec<Vec<f64>> =
            (0..hc1.p()).map(|n| vec![(n as f64).sin(), (n as f64).cos()]).collect();
        let mut b = NodeSlab::from_nested(&a);
        reference::scan_inclusive(&mut hc1, &mut a, &dims, |x, y| x + y);
        let mut hc2 = unit_machine(3);
        scan_inclusive_slab(&mut hc2, &mut b, &dims, |x, y| x + y);
        assert_eq!(b.to_nested(), a);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
        // Exclusive.
        let mut hc3 = unit_machine(3);
        let mut c: Vec<Vec<f64>> = (0..hc3.p()).map(|n| vec![(n as f64).sin(); 3]).collect();
        let mut d = NodeSlab::from_nested(&c);
        reference::scan_exclusive(&mut hc3, &mut c, &dims, 0.0, |x, y| x + y);
        let mut hc4 = unit_machine(3);
        scan_exclusive_slab(&mut hc4, &mut d, &dims, 0.0, |x, y| x + y);
        assert_eq!(d.to_nested(), c);
        assert_eq!(hc3.elapsed_us(), hc4.elapsed_us());
        assert_eq!(hc3.counters(), hc4.counters());
    }
}
