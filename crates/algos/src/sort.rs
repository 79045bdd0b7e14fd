//! Bitonic sort on the hypercube.
//!
//! Johnsson's *Combining Parallel and Sequential Sorting on a Boolean
//! n-cube* (abstracted in the source booklet) builds its sorters from
//! Batcher's bitonic network, whose compare-exchange strides are powers
//! of two — so, exactly as with the FFT, stage strides at or above the
//! chunk size pair **cube neighbours** (one pairwise chunk exchange per
//! stage) and smaller strides are purely local. `q(q+1)/2` stages sort
//! `n = 2^q` elements in `O(lg^2 n)` exchange steps.
//!
//! Elements are compared with a caller-supplied key so the sorter is
//! usable for any `Scalar` payload.

use vmp_core::elem::Scalar;
use vmp_core::prelude::*;
use vmp_hypercube::collective::exchange_slab;
use vmp_hypercube::machine::Hypercube;

/// Sort a block-distributed vector ascending by `key` (`n` a power of
/// two, `n >= p`). Stable ordering is **not** guaranteed (bitonic
/// networks are not stable).
///
/// # Panics
/// Panics unless the vector is linear, block-chunked, with power-of-two
/// length at least `p`.
#[must_use]
pub fn bitonic_sort<T: Scalar, K: PartialOrd>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
    key: impl Fn(&T) -> K,
) -> DistVector<T> {
    let layout = *v.layout();
    assert!(
        matches!(layout.embedding(), VecEmbedding::Linear),
        "bitonic sort expects the linear embedding"
    );
    assert_eq!(layout.dist().kind(), Dist::Block, "bitonic sort expects block chunking");
    let n = layout.n();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let p = layout.grid().p();
    assert!(n >= p, "need at least one element per node");
    let m = n / p;
    let q = n.trailing_zeros() as usize;
    let local_bits = m.trailing_zeros() as usize;

    let mut chunks = v.chunks().clone();

    for k in 1..=q {
        for j in (0..k).rev() {
            let stride = 1usize << j;
            if stride >= m {
                // Node-level compare-exchange: one pairwise chunk
                // exchange along the stride's cube bit.
                let cube_dim = (j - local_bits) as u32;
                let node_bit = stride >> local_bits;
                let mut partners = chunks.clone();
                exchange_slab(hc, &mut partners, cube_dim);
                chunks.for_each_seg_mut(|node, chunk| {
                    let partner = &partners[node];
                    let lower = node & node_bit == 0;
                    for (local, x) in chunk.iter_mut().enumerate() {
                        let g = node * m + local;
                        let ascending = (g >> k) & 1 == 0;
                        let o = partner[local];
                        // Both sides must decide the swap identically,
                        // including on ties, or elements duplicate:
                        // compare (a, b) in POSITION order (a = lower
                        // side's element) on both sides.
                        let a_gt_b = if lower { key(x) > key(&o) } else { key(&o) > key(x) };
                        let a_lt_b = if lower { key(x) < key(&o) } else { key(&o) < key(x) };
                        let swap = if ascending { a_gt_b } else { a_lt_b };
                        if swap {
                            *x = o;
                        }
                    }
                });
                hc.charge_flops(m);
            } else {
                // Local compare-exchange.
                chunks.for_each_seg_mut(|node, chunk| {
                    let base = node * m;
                    for ia in 0..m {
                        let g = base + ia;
                        if g & stride != 0 {
                            continue;
                        }
                        let ib = ia + stride;
                        let ascending = (g >> k) & 1 == 0;
                        let out_of_order = if ascending {
                            key(&chunk[ia]) > key(&chunk[ib])
                        } else {
                            key(&chunk[ia]) < key(&chunk[ib])
                        };
                        if out_of_order {
                            chunk.swap(ia, ib);
                        }
                    }
                });
                hc.charge_flops(m / 2);
            }
        }
    }

    DistVector::from_chunks(layout, chunks)
}

/// Convenience: ascending sort of a numeric vector by value.
#[must_use]
pub fn sort_ascending<T: Scalar + PartialOrd>(
    hc: &mut Hypercube,
    v: &DistVector<T>,
) -> DistVector<T> {
    bitonic_sort(hc, v, |x| *x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn dist<T: Scalar>(x: &[T], dim: u32) -> (Hypercube, DistVector<T>) {
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = VectorLayout::linear(x.len(), grid, Dist::Block);
        (Hypercube::new(dim, CostModel::cm2()), DistVector::from_slice(layout, x))
    }

    fn scrambled(n: usize) -> Vec<i64> {
        (0..n).map(|i| ((i * 7919 + 13) % (2 * n)) as i64 - n as i64).collect()
    }

    #[test]
    fn sorts_random_data() {
        for (n, dim) in [(8usize, 0u32), (32, 2), (128, 4), (256, 5)] {
            let x = scrambled(n);
            let mut expect = x.clone();
            expect.sort_unstable();
            let (mut hc, v) = dist(&x, dim);
            let sorted = sort_ascending(&mut hc, &v).to_dense();
            assert_eq!(sorted, expect, "n = {n}, dim = {dim}");
        }
    }

    #[test]
    fn sorts_already_sorted_and_reversed() {
        let n = 64;
        let asc: Vec<i64> = (0..n as i64).collect();
        let desc: Vec<i64> = (0..n as i64).rev().collect();
        let (mut hc, v) = dist(&asc, 3);
        assert_eq!(sort_ascending(&mut hc, &v).to_dense(), asc);
        let (mut hc2, w) = dist(&desc, 3);
        assert_eq!(sort_ascending(&mut hc2, &w).to_dense(), asc);
    }

    #[test]
    fn handles_duplicates() {
        let n = 64;
        let x: Vec<i64> = (0..n).map(|i| (i % 5) as i64).collect();
        let mut expect = x.clone();
        expect.sort_unstable();
        let (mut hc, v) = dist(&x, 4);
        assert_eq!(sort_ascending(&mut hc, &v).to_dense(), expect);
    }

    #[test]
    fn sorts_by_custom_key() {
        // Sort (id, weight) pairs by weight descending via negated key.
        let n = 32;
        let x: Vec<(i64, i64)> = (0..n).map(|i| (i as i64, ((i * 11) % 17) as i64)).collect();
        let (mut hc, v) = dist(&x, 2);
        let sorted = bitonic_sort(&mut hc, &v, |&(_, w)| -w).to_dense();
        for pair in sorted.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "descending by weight");
        }
        // Same multiset of ids.
        let mut ids: Vec<i64> = sorted.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..n as i64).collect::<Vec<_>>());
    }

    #[test]
    fn result_is_identical_across_machine_sizes() {
        let x = scrambled(128);
        let mut results = Vec::new();
        for dim in [0u32, 2, 4, 6] {
            let (mut hc, v) = dist(&x, dim);
            results.push(sort_ascending(&mut hc, &v).to_dense());
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn communication_scales_as_lg_squared() {
        // All node-level stages are neighbour exchanges: for n = 256 on
        // p = 16, strides >= m occur in a bounded number of stages.
        let x = scrambled(256);
        let (mut hc, v) = dist(&x, 4);
        let _ = sort_ascending(&mut hc, &v);
        let q = 8u64; // lg 256
        assert!(
            hc.counters().message_steps <= q * (q + 1) / 2,
            "{} exchange steps",
            hc.counters().message_steps
        );
    }

    #[test]
    fn floats_sort_too() {
        let n = 64;
        let x: Vec<f64> = (0..n).map(|i| (((i * 31) % 47) as f64) - 23.5).collect();
        let mut expect = x.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let (mut hc, v) = dist(&x, 3);
        assert_eq!(sort_ascending(&mut hc, &v).to_dense(), expect);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let x = scrambled(12);
        let (mut hc, v) = dist(&x, 1);
        let _ = sort_ascending(&mut hc, &v);
    }
}
