//! Boolean *d*-cube topology: node identifiers, neighbours, subcubes.
//!
//! A Boolean cube (hypercube) of dimension `d` has `p = 2^d` nodes. Node
//! identifiers are the integers `0..p`, and two nodes are neighbours iff
//! their identifiers differ in exactly one bit. The bit position is called
//! the *dimension* of the connecting channel.
//!
//! This module is pure address arithmetic: no data, no cost accounting.
//! It mirrors the machine model of the Connection Machine and the Intel
//! iPSC used throughout the TMC/Yale technical-report corpus the paper
//! builds on.

/// A node identifier in a Boolean cube. Plain `usize` so it can index
/// per-processor storage directly.
pub type NodeId = usize;

/// The static shape of a Boolean cube: its dimension `d` (so `p = 2^d`).
///
/// `Cube` is deliberately tiny and `Copy`; it is threaded through every
/// collective and routing routine as the source of truth for addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cube {
    dim: u32,
}

impl Cube {
    /// Maximum supported cube dimension. 24 dimensions = 16Mi nodes, far
    /// beyond anything the simulator can hold in memory; the bound exists
    /// only to keep `1 << dim` well-defined on 32-bit `usize` targets.
    pub const MAX_DIM: u32 = 24;

    /// Create a cube of dimension `dim` (`2^dim` nodes).
    ///
    /// # Panics
    /// Panics if `dim > Self::MAX_DIM`.
    #[must_use]
    pub fn new(dim: u32) -> Self {
        assert!(dim <= Self::MAX_DIM, "cube dimension {dim} exceeds maximum {}", Self::MAX_DIM);
        Cube { dim }
    }

    /// Cube dimension `d`.
    #[inline]
    #[must_use]
    pub fn dim(self) -> u32 {
        self.dim
    }

    /// Number of nodes `p = 2^d`.
    #[inline]
    #[must_use]
    pub fn nodes(self) -> usize {
        1usize << self.dim
    }

    /// `lg p = d`, as used in the paper's `m > p lg p` optimality bound.
    #[inline]
    #[must_use]
    pub fn lg_p(self) -> u32 {
        self.dim
    }

    /// True iff `node` is a valid identifier in this cube.
    #[inline]
    #[must_use]
    pub fn contains(self, node: NodeId) -> bool {
        node < self.nodes()
    }

    /// The neighbour of `node` across cube dimension `d`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `d >= self.dim()` or `node` is out of
    /// range.
    #[inline]
    #[must_use]
    pub fn neighbor(self, node: NodeId, d: u32) -> NodeId {
        debug_assert!(d < self.dim, "dimension {d} out of range for {self:?}");
        debug_assert!(self.contains(node));
        node ^ (1usize << d)
    }

    /// Iterator over all node identifiers.
    pub fn iter_nodes(self) -> impl Iterator<Item = NodeId> {
        0..self.nodes()
    }

    /// Iterator over the cube's dimensions `0..d`.
    pub fn iter_dims(self) -> impl Iterator<Item = u32> {
        0..self.dim
    }

    /// Hamming distance between two nodes — the routing distance in the
    /// cube (each differing bit costs one hop under e-cube routing).
    #[inline]
    #[must_use]
    pub fn distance(self, a: NodeId, b: NodeId) -> u32 {
        debug_assert!(self.contains(a) && self.contains(b));
        ((a ^ b) as u64).count_ones()
    }

    /// Split off the subcube coordinates of `node` selected by the bit
    /// positions in `dims`: returns the packed value of those bits, in the
    /// order given (first dim = least-significant packed bit).
    ///
    /// This is how a 2-D processor grid addresses a node: the row dims and
    /// column dims of the grid are disjoint subsets of the cube dims.
    #[must_use]
    pub fn extract_coords(self, node: NodeId, dims: &[u32]) -> usize {
        let mut packed = 0usize;
        for (i, &d) in dims.iter().enumerate() {
            debug_assert!(d < self.dim);
            packed |= ((node >> d) & 1) << i;
        }
        packed
    }

    /// Inverse of [`Cube::extract_coords`]: scatter the low bits of
    /// `packed` into the bit positions `dims` (other bits zero).
    #[must_use]
    pub fn deposit_coords(self, packed: usize, dims: &[u32]) -> usize {
        let mut node = 0usize;
        for (i, &d) in dims.iter().enumerate() {
            debug_assert!(d < self.dim);
            node |= ((packed >> i) & 1) << d;
        }
        node
    }

    /// Replace the bits of `node` at positions `dims` with the low bits of
    /// `packed`, leaving every other bit untouched.
    #[must_use]
    pub fn with_coords(self, node: NodeId, packed: usize, dims: &[u32]) -> NodeId {
        let mut out = node;
        for (i, &d) in dims.iter().enumerate() {
            debug_assert!(d < self.dim);
            let bit = (packed >> i) & 1;
            out = (out & !(1usize << d)) | (bit << d);
        }
        out
    }

    /// Iterate over the nodes of the subcube spanned by `dims` that
    /// contains `anchor` (i.e. vary exactly the bits in `dims`, keep the
    /// rest as in `anchor`). Yields `2^{|dims|}` nodes, `anchor`'s
    /// subcube-local coordinate order.
    pub fn subcube_nodes<'a>(
        self,
        anchor: NodeId,
        dims: &'a [u32],
    ) -> impl Iterator<Item = NodeId> + 'a {
        let base = {
            let mut b = anchor;
            for &d in dims {
                b &= !(1usize << d);
            }
            b
        };
        (0..(1usize << dims.len())).map(move |packed| base | self.deposit_coords(packed, dims))
    }

    /// The mask with a one in each position listed in `dims`.
    #[must_use]
    pub fn dims_mask(self, dims: &[u32]) -> usize {
        let mut m = 0usize;
        for &d in dims {
            debug_assert!(d < self.dim);
            m |= 1usize << d;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_basic_shape() {
        let c = Cube::new(4);
        assert_eq!(c.dim(), 4);
        assert_eq!(c.nodes(), 16);
        assert_eq!(c.lg_p(), 4);
        assert!(c.contains(15));
        assert!(!c.contains(16));
    }

    #[test]
    fn cube_zero_dim_is_single_node() {
        let c = Cube::new(0);
        assert_eq!(c.nodes(), 1);
        assert!(c.contains(0));
        assert_eq!(c.iter_dims().count(), 0);
    }

    #[test]
    fn neighbors_differ_in_one_bit() {
        let c = Cube::new(5);
        for node in c.iter_nodes() {
            for d in c.iter_dims() {
                let n = c.neighbor(node, d);
                assert_eq!(c.distance(node, n), 1);
                assert_eq!(c.neighbor(n, d), node, "neighbour is an involution");
            }
        }
    }

    #[test]
    fn distance_is_hamming() {
        let c = Cube::new(6);
        assert_eq!(c.distance(0b101010, 0b010101), 6);
        assert_eq!(c.distance(0, 0), 0);
        assert_eq!(c.distance(0b111, 0b110), 1);
    }

    #[test]
    fn extract_deposit_roundtrip() {
        let c = Cube::new(6);
        let dims = [1u32, 3, 4];
        for node in c.iter_nodes() {
            let coords = c.extract_coords(node, &dims);
            let rebuilt = c.with_coords(node, coords, &dims);
            assert_eq!(rebuilt, node);
            assert_eq!(c.extract_coords(c.deposit_coords(coords, &dims), &dims), coords);
        }
    }

    #[test]
    fn with_coords_changes_only_selected_dims() {
        let c = Cube::new(6);
        let dims = [0u32, 2];
        let node = 0b101010;
        let out = c.with_coords(node, 0b11, &dims);
        assert_eq!(out & !c.dims_mask(&dims), node & !c.dims_mask(&dims));
        assert_eq!(c.extract_coords(out, &dims), 0b11);
    }

    #[test]
    fn subcube_nodes_spans_exactly_the_subcube() {
        let c = Cube::new(5);
        let dims = [1u32, 4];
        let anchor = 0b10101;
        let nodes: Vec<_> = c.subcube_nodes(anchor, &dims).collect();
        assert_eq!(nodes.len(), 4);
        // All nodes agree with anchor outside `dims`.
        let keep = !c.dims_mask(&dims);
        for &n in &nodes {
            assert_eq!(n & keep, anchor & keep);
        }
        // And all 4 coordinate assignments appear.
        let mut coords: Vec<_> = nodes.iter().map(|&n| c.extract_coords(n, &dims)).collect();
        coords.sort_unstable();
        assert_eq!(coords, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dims_mask_collects_bits() {
        let c = Cube::new(8);
        assert_eq!(c.dims_mask(&[0, 3, 7]), 0b1000_1001);
        assert_eq!(c.dims_mask(&[]), 0);
    }
}
