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
//! Orderings (scan order, allgather concatenation order, scatter piece
//! order) are coordinate order.
//!
//! Cost accounting: each routine issues `O(|dims|)` blocked message
//! supersteps, charging `alpha + beta * L` for the busiest channel plus
//! `gamma` per critical-path combine, exactly as analysed in Johnsson &
//! Ho, *Optimum Broadcasting and Personalized Communication in
//! Hypercubes* (TR-610, reproduced in the source booklet). Healthy
//! machines whose cost model lets a node drive all its ports charge the
//! ported model instead wherever it is cheaper; payload movement and
//! combine order are identical under every schedule, only the charges
//! differ. Each collective asks [`crate::Hypercube::choose_algo`] once,
//! up front. Under single-port its movement passes charge per superstep;
//! under all-port one [`crate::Hypercube::charge_allport`] call charges
//! the whole [`crate::cost::allport_schedule`], pipelined over the
//! edge-disjoint spanning binomial trees of
//! [`crate::spanning::EsbtForest`].
mod broadcast;
mod exchange;
mod gather;
mod reduce;
pub mod reference;
mod scan;

pub use broadcast::{broadcast_slab, charge_broadcast};
pub use exchange::exchange_slab;
pub use gather::{allgather_slab, charge_allgather, scatter_slab};
pub use reduce::{allreduce_scalar, allreduce_slab, allreduce_to_representatives, reduce_slab};
pub use scan::scan_inclusive_slab;

use crate::topology::{Cube, NodeId};

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

/// The nodes of a `p`-node cube whose address bits under `mask` equal
/// `fixed`, in ascending order. Only the matching nodes are visited, so
/// the cost is the number of matches, not `p`: this is how the step
/// loops find one side of a subcube step (e.g. the senders of a
/// binomial-tree step) by mask arithmetic alone.
pub(crate) fn nodes_where(
    p: usize,
    mask: usize,
    fixed: usize,
) -> impl Iterator<Item = NodeId> + Clone {
    debug_assert!(p.is_power_of_two() && fixed & !mask == 0);
    let free = (p - 1) & !mask;
    // Ascending submasks of `free`: add one, letting the carry jump
    // over the fixed bits.
    std::iter::successors(Some(0usize), move |&sub| {
        let next = (sub | !free).wrapping_add(1) & free;
        (next != 0).then_some(next)
    })
    .map(move |sub| fixed | sub)
}

/// The `(lo, lo | chan)` partner pairs across the channel `chan` (a
/// single address bit) of a `p`-node cube, in ascending order.
pub(crate) fn channel_pairs(
    p: usize,
    chan: usize,
) -> impl Iterator<Item = (NodeId, NodeId)> + Clone {
    nodes_where(p, chan, 0).map(move |lo| (lo, lo | chan))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_where_enumerates_exactly_the_matches() {
        for dim in 0..=6u32 {
            let p = 1usize << dim;
            for mask in 0..p {
                for fixed in (0..p).filter(|f| f & !mask == 0) {
                    let want: Vec<usize> = (0..p).filter(|n| n & mask == fixed).collect();
                    let got: Vec<usize> = nodes_where(p, mask, fixed).collect();
                    assert_eq!(got, want, "p {p} mask {mask:#b} fixed {fixed:#b}");
                }
            }
        }
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
    pub fn slab_from_fn<T>(hc: &Hypercube, mut f: impl FnMut(usize) -> Vec<T>) -> NodeSlab<T> {
        NodeSlab::build(hc.p(), 0, |n, buf| buf.append(&mut f(n)))
    }

    /// Per-node segments where node `n` holds `len` copies of `n as f64`
    /// offset by the element index — distinguishable contents.
    pub fn labelled_locals(hc: &Hypercube, len: usize) -> NodeSlab<f64> {
        slab_from_fn(hc, |n| (0..len).map(|i| (n * 1000 + i) as f64).collect())
    }
}
