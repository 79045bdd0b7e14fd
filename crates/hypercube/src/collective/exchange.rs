//! Pairwise exchange along one cube dimension.

use super::channel_pairs;
use crate::machine::Hypercube;
use crate::slab::NodeSlab;

/// Pairwise exchange over a flat [`NodeSlab`]: each segment ends holding
/// its `dim`-neighbour's previous content — the primitive step of
/// butterfly algorithms (FFT stages, bitonic compare-exchange, sparse
/// all-reduce). One superstep, `alpha + beta * L` on full-duplex
/// channels. When partner segments have equal lengths (the common,
/// load-balanced case) this is an in-arena `swap_with_slice`; otherwise
/// one rebuild pass.
///
/// # Panics
/// Panics if `dim` is out of range.
pub fn exchange_slab<T: Copy>(hc: &mut Hypercube, slab: &mut NodeSlab<T>, dim: u32) {
    let cube = hc.cube();
    assert!(dim < cube.dim(), "dimension {dim} out of range for cube of dim {}", cube.dim());
    assert_eq!(slab.p(), cube.nodes());
    let bit = 1usize << dim;
    // Every node receives its partner's segment: the channel load is the
    // longest segment, the volume is every segment once.
    let max_len = slab.max_seg_len();
    let total = slab.total_len() as u64;
    let pairs = channel_pairs(slab.p(), bit);
    if pairs.clone().all(|(lo, hi)| slab.len_of(lo) == slab.len_of(hi)) {
        for (lo, hi) in pairs.clone() {
            let (a, b) = slab.pair_mut(lo, hi);
            a.swap_with_slice(b);
        }
    } else {
        let mut out = NodeSlab::with_capacity(slab.p(), slab.total_len());
        for node in 0..slab.p() {
            out.push_seg(&slab[node ^ bit]);
        }
        slab.swap(&mut out);
    }
    hc.charge_exchange_step(pairs, max_len, total);
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::super::testutil::{slab_from_fn, unit_machine};
    use super::*;

    #[test]
    fn exchange_swaps_buffers() {
        let mut hc = unit_machine(3);
        let before = slab_from_fn(&hc, |n| vec![n as u64; n % 3]);
        let mut got = before.clone();
        exchange_slab(&mut hc, &mut got, 1);
        for node in 0..8 {
            assert_eq!(got[node], before[node ^ 2], "node {node}");
        }
        assert_eq!(hc.counters().message_steps, 1);
    }

    #[test]
    fn exchange_cost_is_one_superstep_of_the_longest_buffer() {
        let mut hc = unit_machine(2);
        let mut slab = slab_from_fn(&hc, |n| vec![0u8; if n == 0 { 7 } else { 2 }]);
        exchange_slab(&mut hc, &mut slab, 0);
        assert_eq!(hc.elapsed_us(), 1.0 + 7.0, "alpha + beta * max_len");
    }

    #[test]
    fn double_exchange_restores() {
        let mut hc = unit_machine(4);
        let before = slab_from_fn(&hc, |n| vec![n]);
        let mut slab = before.clone();
        exchange_slab(&mut hc, &mut slab, 3);
        exchange_slab(&mut hc, &mut slab, 3);
        assert_eq!(slab, before);
    }

    #[test]
    fn ragged_exchange_rebuild_matches_reference() {
        let mut hc1 = unit_machine(3);
        let locals: Vec<Vec<u32>> = (0..hc1.p()).map(|n| vec![n as u32; (n % 4) + 1]).collect();
        let want = reference::exchange(&mut hc1, &locals, 2);
        let mut hc2 = unit_machine(3);
        let mut slab = NodeSlab::from_nested(&locals);
        exchange_slab(&mut hc2, &mut slab, 2);
        assert_eq!(slab.to_nested(), want);
        assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
        assert_eq!(hc1.counters(), hc2.counters());
    }

    #[test]
    fn slab_exchange_matches_for_equal_and_ragged_lengths() {
        for ragged in [false, true] {
            let mut hc1 = unit_machine(3);
            let locals: Vec<Vec<u16>> =
                (0..hc1.p()).map(|n| vec![n as u16; if ragged { n % 3 } else { 2 }]).collect();
            let want = reference::exchange(&mut hc1, &locals, 0);
            let mut hc2 = unit_machine(3);
            let mut slab = NodeSlab::from_nested(&locals);
            exchange_slab(&mut hc2, &mut slab, 0);
            assert_eq!(slab.to_nested(), want, "ragged={ragged}");
            assert_eq!(hc1.elapsed_us(), hc2.elapsed_us());
            assert_eq!(hc1.counters(), hc2.counters());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_dim_panics() {
        let mut hc = unit_machine(2);
        let mut slab: NodeSlab<u8> = NodeSlab::new(hc.p());
        exchange_slab(&mut hc, &mut slab, 2);
    }
}
