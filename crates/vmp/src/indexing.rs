//! Indexed (irregular) gather — `out[i] = values[index[i]]`.
//!
//! The APL-style companion of the four primitives: where `extract` pulls
//! one *line* of a matrix, indexed gather pulls an arbitrary permutation
//! or many-to-one selection of vector elements. On the machine it is a
//! two-phase routed request/reply — the pattern behind pointer jumping
//! (`vmp_algos::listrank`), table lookups, and gather-type image
//! operations in the surrounding corpus.

use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::route::charge_blocks;
use vmp_layout::VecEmbedding;

use crate::elem::Scalar;
use crate::vector::DistVector;

/// `out[i] = values[index[i]]` for arbitrary (possibly repeated)
/// indices. Two blocked routed phases: requests to the owners, replies
/// to the askers.
///
/// # Panics
/// Panics if the layouts differ, the embedding is not linear (indexed
/// gather addresses a flat vector), or an index is out of range.
pub fn gather_by_index<T: Scalar>(
    hc: &mut Hypercube,
    values: &DistVector<T>,
    index: &DistVector<usize>,
) -> DistVector<T> {
    let layout = *values.layout();
    assert_eq!(&layout, index.layout(), "values and index must share a layout");
    assert!(
        matches!(layout.embedding(), VecEmbedding::Linear),
        "indexed gather addresses the linear embedding"
    );
    let n = layout.n();

    // Phase 1: each position asks the owner of its index, one message per
    // position. Phase 2: the owner looks the value up and replies.
    let mut requests = Vec::with_capacity(n);
    let mut lookups = vec![0usize; layout.grid().p()];
    for (asker, chunk) in index.chunks().iter_segs().enumerate() {
        for &t in chunk {
            assert!(t < n, "index {t} out of range 0..{n}");
            let owner = layout.primary_holder(t);
            lookups[owner] += 1;
            requests.push((asker, owner, 1));
        }
    }
    charge_blocks(hc, requests.iter().copied());
    hc.charge_flops(lookups.into_iter().max().unwrap_or(0));
    charge_blocks(hc, requests.into_iter().map(|(asker, owner, len)| (owner, asker, len)));
    DistVector::from_fn(layout, |i| values.get(index.get(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_hypercube::cost::CostModel;
    use vmp_hypercube::topology::Cube;
    use vmp_layout::{Dist, ProcGrid, VectorLayout};

    fn setup(n: usize, dim: u32) -> (Hypercube, VectorLayout) {
        let grid = ProcGrid::square(Cube::new(dim));
        (Hypercube::new(dim, CostModel::cm2()), VectorLayout::linear(n, grid, Dist::Block))
    }

    #[test]
    fn gathers_a_permutation() {
        let n = 20;
        let (mut hc, layout) = setup(n, 4);
        let values = DistVector::from_fn(layout, |i| (i * 11) as i64);
        let index = DistVector::from_fn(layout, |i| (i * 7) % n);
        let out = gather_by_index(&mut hc, &values, &index);
        out.assert_consistent();
        for i in 0..n {
            assert_eq!(out.get(i), ((i * 7) % n * 11) as i64);
        }
    }

    #[test]
    fn repeated_indices_fan_out() {
        let n = 16;
        let (mut hc, layout) = setup(n, 3);
        let values = DistVector::from_fn(layout, |i| i as i64);
        let index = DistVector::constant(layout, 5usize); // everyone reads 5
        let out = gather_by_index(&mut hc, &values, &index);
        assert!(out.to_dense().iter().all(|&v| v == 5));
    }

    #[test]
    fn identity_gather_is_identity() {
        let n = 13;
        let (mut hc, layout) = setup(n, 2);
        let values = DistVector::from_fn(layout, |i| (i as f64).sin());
        let index = DistVector::from_fn(layout, |i| i);
        let out = gather_by_index(&mut hc, &values, &index);
        assert_eq!(out.to_dense(), values.to_dense());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let (mut hc, layout) = setup(4, 1);
        let values = DistVector::from_fn(layout, |i| i as i64);
        let index = DistVector::constant(layout, 9usize);
        let _ = gather_by_index(&mut hc, &values, &index);
    }
}
