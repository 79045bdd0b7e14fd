//! Parallel prefix (scan) within subcubes.
//!
//! Scans are the signature Connection Machine operation (Blelloch's scan
//! model). The vector scans in `vmp::scan` run over allgathers instead;
//! this subcube scan is the collective the all-port experiment prices.
//! Order is subcube **coordinate order** (the packed value of the node's
//! bits at `dims`).

use super::{channel_pairs, check_dims};
use crate::cost::{Algo, Collective};
use crate::machine::Hypercube;
use crate::slab::NodeSlab;

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
    let seg_len = slab.max_seg_len();
    let algo = hc.choose_algo(Collective::Scan, dims.len(), seg_len);
    let p = slab.p();
    let mut totals = slab.clone();
    let mut allport_total: u64 = 0;
    for &d in dims {
        let chan = 1usize << d;
        let mut max_len = 0usize;
        let mut total_elems: u64 = 0;
        for (node, partner) in channel_pairs(p, chan) {
            let len = totals.len_of(node);
            assert_eq!(len, totals.len_of(partner), "scan requires equal buffer lengths");
            max_len = max_len.max(len);
            total_elems += 2 * len as u64;

            let (lo_total, hi_total) = totals.pair_mut(node, partner);
            let hi_prefix = slab.seg_mut(partner);

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
            Algo::AllPort { .. } => allport_total += total_elems,
        }
    }
    if let Algo::AllPort { chunks } = algo {
        hc.charge_allport(Collective::Scan, dims.len(), seg_len, chunks, allport_total);
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
        // On floats (combine-order sensitive).
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
    }
}
