//! Collective communication on subcubes.
//!
//! Every routine here operates on a *set of cube dimensions* `dims`: the
//! machine decomposes into `p / 2^{|dims|}` disjoint subcubes (one per
//! assignment of the remaining address bits), and the collective runs in
//! **all subcubes simultaneously** — the natural SPMD shape for row- and
//! column-wise matrix operations on a 2-D processor grid whose row dims
//! and column dims are disjoint subsets of the cube dims.
//!
//! Within a subcube, a node is identified by its *coordinate*: the packed
//! value of its address bits at `dims` (see [`Cube::extract_coords`]).
//! Orderings (scan order, gather concatenation order) are coordinate
//! order.
//!
//! Cost accounting: each routine issues `O(|dims|)` blocked message
//! supersteps, charging `alpha + beta * L` for the busiest channel plus
//! `gamma` per critical-path combine, exactly as analysed in Johnsson &
//! Ho, *Optimum Broadcasting and Personalized Communication in
//! Hypercubes* (TR-610, reproduced in the source booklet). Healthy
//! machines whose cost model lets a node drive all its ports charge the
//! ported model instead wherever it is cheaper (see [`allport`]); payload
//! movement and combine order are identical under every schedule.

pub mod allport;
mod alltoall;
mod broadcast;
mod exchange;
mod gather;
mod reduce;
pub mod reference;
mod scan;

pub use alltoall::alltoall_slab;
pub use broadcast::broadcast_slab;
pub use exchange::exchange_slab;
pub use gather::{allgather_slab, gather_slab, scatter_slab};
pub use reduce::{allreduce_slab, reduce_slab};
pub use scan::{scan_exclusive_slab, scan_inclusive_slab};

use crate::topology::Cube;

/// Validate a dimension subset: all in range and pairwise distinct.
pub(crate) fn check_dims(cube: Cube, dims: &[u32]) {
    let mut mask = 0usize;
    for &d in dims {
        assert!(d < cube.dim(), "dimension {d} out of range for cube of dim {}", cube.dim());
        let bit = 1usize << d;
        assert_eq!(mask & bit, 0, "dimension {d} listed twice");
        mask |= bit;
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::cost::CostModel;
    use crate::machine::Hypercube;
    use crate::slab::NodeSlab;

    pub fn unit_machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    /// One segment per node of `hc`, node `n`'s being `f(n)`.
    pub fn slab_from_fn<T>(hc: &Hypercube, f: impl FnMut(usize) -> Vec<T>) -> NodeSlab<T> {
        NodeSlab::from_nested_owned((0..hc.p()).map(f).collect())
    }

    /// Per-node segments where node `n` holds `len` copies of `n as f64`
    /// offset by the element index — distinguishable contents.
    pub fn labelled_locals(hc: &Hypercube, len: usize) -> NodeSlab<f64> {
        slab_from_fn(hc, |n| (0..len).map(|i| (n * 1000 + i) as f64).collect())
    }
}
