//! Histogram computation — data-independent vs data-dependent
//! all-to-all reduction.
//!
//! Reproduces the algorithmic comparison of Gerogiannis, Orphanoudakis &
//! Johnsson, *Histogram Computation on Distributed Memory Architectures*
//! (TR-682, abstracted in the source booklet): both algorithms perform an
//! all-to-all reduction of per-node bin counts through a butterfly, but
//! the **data-independent** (dense) variant ships all `B` bins at every
//! stage while the **data-dependent** (sparse) variant ships only the
//! non-zero bins. With few elements per processor the sparse variant
//! moves `O(sqrt(B))`-ish data per stage and wins; as occupancy grows it
//! degenerates to the dense cost — the crossover experiment X6 measures
//! exactly this.

use vmp_core::prelude::*;
use vmp_hypercube::collective::{allreduce_slab, exchange_slab};
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::slab::NodeSlab;

/// Serial oracle.
#[must_use]
pub fn histogram_serial(values: &[usize], bins: usize) -> Vec<u64> {
    let mut h = vec![0u64; bins];
    for &v in values {
        assert!(v < bins, "value {v} out of range 0..{bins}");
        h[v] += 1;
    }
    h
}

/// Dense (data-independent) histogram: local count into a full `B`-bin
/// array, then a butterfly all-reduce shipping all `B` bins per stage.
/// Returns the machine-wide histogram (replicated; returned host-side).
#[must_use]
pub fn histogram_dense(hc: &mut Hypercube, v: &DistVector<usize>, bins: usize) -> Vec<u64> {
    let p = v.layout().grid().p();
    // Local counting.
    let mut locals = NodeSlab::build(p, p * bins, |node, buf| {
        let start = buf.len();
        buf.resize(start + bins, 0u64);
        let h = &mut buf[start..];
        for &x in primary_chunk(v, node) {
            assert!(x < bins, "value {x} out of range 0..{bins}");
            h[x] += 1;
        }
    });
    hc.charge_flops(v.layout().dist().max_count());

    // Butterfly: all B bins per stage.
    let dims: Vec<u32> = hc.cube().iter_dims().collect();
    allreduce_slab(hc, &mut locals, &dims, |a, b| a + b);
    locals[0].to_vec()
}

/// Sparse (data-dependent) histogram: local counts kept as sorted
/// `(bin, count)` pairs; each butterfly stage exchanges only the
/// **non-zero** bins and merges. Same result, traffic proportional to
/// occupancy instead of `B`.
#[must_use]
pub fn histogram_sparse(hc: &mut Hypercube, v: &DistVector<usize>, bins: usize) -> Vec<u64> {
    let p = v.layout().grid().p();
    // Local sparse counting (sorted by bin).
    let mut sparse = NodeSlab::build(p, 0, |node, buf| {
        let mut dense = vec![0u64; bins];
        for &x in primary_chunk(v, node) {
            assert!(x < bins, "value {x} out of range 0..{bins}");
            dense[x] += 1;
        }
        buf.extend(
            dense.into_iter().enumerate().filter(|&(_, c)| c > 0).map(|(b, c)| (b as u32, c)),
        );
    });
    hc.charge_flops(v.layout().dist().max_count());

    // Butterfly with sparse merge: per stage, exchange the non-zero
    // lists (2 machine words per entry, charged as 2 elements) and merge.
    for d in hc.cube().iter_dims().collect::<Vec<_>>() {
        let mut partners = sparse.clone();
        exchange_slab(hc, &mut partners, d);
        // The exchange charged 1 element per (bin, count) pair; charge
        // the second word of each pair on the same message.
        hc.charge_elements(partners.max_seg_len());
        let mut merge_work = 0usize;
        sparse = NodeSlab::build(p, sparse.total_len() + partners.total_len(), |node, out| {
            let start = out.len();
            merge_sparse(&sparse[node], &partners[node], out);
            merge_work = merge_work.max(out.len() - start);
        });
        hc.charge_flops(merge_work);
    }

    let mut out = vec![0u64; bins];
    for &(b, c) in &sparse[0] {
        out[b as usize] = c;
    }
    out
}

/// The elements `node` counts: its chunk if it is the primary holder of
/// its part, else none, so a replica is never counted twice.
fn primary_chunk(v: &DistVector<usize>, node: usize) -> &[usize] {
    if v.layout().is_primary_holder(node) {
        v.node_chunk(node)
    } else {
        &[]
    }
}

/// Merge two bin-sorted sparse histograms, appending the result to `out`.
fn merge_sparse(a: &[(u32, u64)], b: &[(u32, u64)], out: &mut Vec<(u32, u64)>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;

    fn dist(values: &[usize], dim: u32) -> (Hypercube, DistVector<usize>) {
        let grid = ProcGrid::square(Cube::new(dim));
        let layout = VectorLayout::linear(values.len(), grid, Dist::Block);
        (Hypercube::new(dim, CostModel::cm2()), DistVector::from_slice(layout, values))
    }

    fn values(n: usize, bins: usize, spread: usize) -> Vec<usize> {
        (0..n).map(|i| (i * 7919 + 13) % spread.min(bins)).collect()
    }

    #[test]
    fn both_algorithms_match_the_serial_oracle() {
        for (n, bins, spread, dim) in
            [(100usize, 32usize, 32usize, 3u32), (57, 64, 5, 4), (256, 16, 16, 0), (33, 128, 3, 5)]
        {
            let vals = values(n, bins, spread);
            let expect = histogram_serial(&vals, bins);
            let (mut hc1, v1) = dist(&vals, dim);
            assert_eq!(histogram_dense(&mut hc1, &v1, bins), expect, "dense n={n} bins={bins}");
            let (mut hc2, v2) = dist(&vals, dim);
            assert_eq!(histogram_sparse(&mut hc2, &v2, bins), expect, "sparse n={n} bins={bins}");
        }
    }

    /// Each element counts once whatever the embedding: a replicated
    /// vector's copies on the other grid lines are not counted again.
    #[test]
    fn every_embedding_counts_each_element_once() {
        let grid = ProcGrid::square(Cube::new(4)); // 4 x 4
        let vals: Vec<usize> = (0..10).map(|i| i % 4).collect();
        let expect = histogram_serial(&vals, 4);
        assert_eq!(expect, [3, 3, 2, 2]);
        for layout in [
            VectorLayout::linear(10, grid, Dist::Block),
            VectorLayout::aligned(10, grid, Axis::Row, Placement::Replicated, Dist::Cyclic),
            VectorLayout::aligned(10, grid, Axis::Col, Placement::Replicated, Dist::Block),
            VectorLayout::aligned(10, grid, Axis::Row, Placement::Concentrated(2), Dist::Block),
            VectorLayout::aligned(10, grid, Axis::Col, Placement::Concentrated(3), Dist::Cyclic),
        ] {
            let v = DistVector::from_slice(layout, &vals);
            let mut hc = Hypercube::new(4, CostModel::cm2());
            assert_eq!(histogram_dense(&mut hc, &v, 4), expect, "dense {layout:?}");
            let mut hc = Hypercube::new(4, CostModel::cm2());
            assert_eq!(histogram_sparse(&mut hc, &v, 4), expect, "sparse {layout:?}");
        }
    }

    #[test]
    fn sparse_wins_with_few_elements_and_many_bins() {
        // Few pixels per processor, large B: the data-dependent variant
        // ships far less. (TR-682's headline regime.)
        let bins = 4096;
        let vals = values(64, bins, 7); // 7 distinct values machine-wide
        let (mut hd, v1) = dist(&vals, 6);
        let _ = histogram_dense(&mut hd, &v1, bins);
        let (mut hs, v2) = dist(&vals, 6);
        let _ = histogram_sparse(&mut hs, &v2, bins);
        assert!(
            hs.elapsed_us() < hd.elapsed_us() / 4.0,
            "sparse {} vs dense {}",
            hs.elapsed_us(),
            hd.elapsed_us()
        );
    }

    #[test]
    fn dense_wins_when_bins_saturate() {
        // Many elements per processor, small B: every node's sparse list
        // is full anyway, and the dense variant has no per-entry tax.
        let bins = 64;
        let vals = values(64 * 256, bins, bins);
        let (mut hd, v1) = dist(&vals, 4);
        let _ = histogram_dense(&mut hd, &v1, bins);
        let (mut hs, v2) = dist(&vals, 4);
        let _ = histogram_sparse(&mut hs, &v2, bins);
        assert!(
            hd.elapsed_us() < hs.elapsed_us(),
            "dense {} vs sparse {}",
            hd.elapsed_us(),
            hs.elapsed_us()
        );
    }

    #[test]
    fn merge_sparse_merges() {
        let a = vec![(1u32, 2u64), (5, 1)];
        let b = vec![(0u32, 3u64), (5, 4), (9, 1)];
        let merged = |x: &[(u32, u64)], y: &[(u32, u64)]| {
            // Appends after what the arena already holds.
            let mut out = vec![(99u32, 99u64)];
            merge_sparse(x, y, &mut out);
            out.split_off(1)
        };
        assert_eq!(merged(&a, &b), vec![(0, 3), (1, 2), (5, 5), (9, 1)]);
        assert_eq!(merged(&[], &b), b);
        assert_eq!(merged(&a, &[]), a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_value_panics() {
        let (mut hc, v) = dist(&[3, 99], 1);
        let _ = histogram_dense(&mut hc, &v, 10);
    }
}
