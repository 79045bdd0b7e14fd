//! Alternative broadcast/reduce schedules — the spanning-tree ablation.
//!
//! The binomial-tree schedules in [`crate::collective`] minimise start-ups
//! (`k` of them) but transfer the whole buffer at every level, costing
//! `k * (alpha + beta * L)`. Johnsson & Ho's *Optimum Broadcasting and
//! Personalized Communication in Hypercubes* (TR-610, abstract in the
//! source booklet) shows large-message broadcasts can shed the factor `k`
//! on the bandwidth term with balanced / edge-disjoint spanning trees.
//! This module implements the one-port remedies in data-correct form:
//!
//! * **scatter + allgather** broadcast (`2k` start-ups,
//!   `~2 * beta * L` transfer) — the "balanced tree" one-port schedule;
//! * **reduce-scatter + allgather** all-reduce (Rabenseifner) with the
//!   same trade.
//!
//! The all-port remedy — pipelining over the `k` edge-disjoint spanning
//! binomial trees (nESBT) of [`EsbtForest`] — is not a schedule here: it
//! is what [`crate::collective::broadcast_slab`] runs on a machine whose
//! cost model has all ports, priced by
//! [`crate::cost::allport_schedule`] like every other collective.
//!
//! Benchmark F4 sweeps message size against these schedules and the
//! machine's all-port broadcast to reproduce the crossover: binomial
//! wins small messages (fewer start-ups), balanced schedules win large
//! ones.

use crate::collective::{allgather_slab, check_dims, scatter_slab};
use crate::machine::Hypercube;
use crate::slab::NodeSlab;
use crate::topology::NodeId;

/// Broadcast the segment at subcube coordinate `root_coord` to all
/// subcube members by scatter then allgather:
/// `2k * alpha + ~2 * beta * L`. Semantics identical to
/// [`crate::collective::broadcast_slab`] (the binomial tree,
/// `k * (alpha + beta * L)` on one port); only the schedule, and hence
/// the charged time, differs.
pub fn broadcast_scatter_allgather<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    root_coord: usize,
) {
    let cube = hc.cube();
    let k = dims.len();
    if k == 0 {
        return;
    }
    // Move the payload to the coordinate-0 node of each subcube if the
    // root is elsewhere (the scatter tree is rooted at coordinate 0).
    // Only the charge is needed here: the staging below copies the
    // root's segment directly.
    if root_coord != 0 {
        let mut max_len = 0usize;
        let mut total = 0u64;
        for node in cube.iter_nodes() {
            if cube.extract_coords(node, dims) == root_coord {
                max_len = max_len.max(slab.len_of(node));
                total += slab.len_of(node) as u64;
            }
        }
        // Distance can be up to k, but the payload moves as one blocked
        // message along each differing dimension.
        let hops = (root_coord as u64).count_ones() as usize;
        for _ in 0..hops {
            hc.charge_message_step(max_len, total);
        }
    }
    // Stage each root's buffer at coordinate 0 and scatter it as 2^k
    // near-equal pieces...
    let mask = cube.dims_mask(dims);
    let mut staged = NodeSlab::build(cube.nodes(), slab.total_len(), |node, buf| {
        if node & mask == 0 {
            buf.extend_from_slice(&slab[cube.with_coords(node, root_coord, dims)]);
        }
    });
    scatter_slab(hc, &mut staged, dims);
    // ...then allgather: every node ends with the concatenation, which
    // equals the original buffer.
    allgather_slab(hc, &mut staged, dims);
    slab.swap(&mut staged);
}

/// All-reduce via reduce-scatter + allgather (Rabenseifner's algorithm):
/// every member ends with the full elementwise reduction.
pub fn allreduce_rabenseifner<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    op: impl Fn(T, T) -> T + Copy,
) {
    reduce_scatter(hc, slab, dims, op);
    allgather_slab(hc, slab, dims);
}

/// Recursive-halving reduce-scatter: member at coordinate `c` ends with
/// the fully reduced segment `c` (coordinate-order split) of the buffer.
fn reduce_scatter<T: Copy>(
    hc: &mut Hypercube,
    slab: &mut NodeSlab<T>,
    dims: &[u32],
    op: impl Fn(T, T) -> T + Copy,
) {
    let cube = hc.cube();
    check_dims(cube, dims);
    assert_eq!(slab.p(), cube.nodes());
    let k = dims.len();
    if k == 0 {
        return;
    }

    // Every node tracks the global [lo, hi) range its buffer covers; the
    // split points are the coordinate-order segment boundaries, so both
    // partners always agree on the current range.
    let p = cube.nodes();
    let full_len = slab.len_of(0);
    assert!(
        (0..p).all(|node| slab.len_of(node) == full_len),
        "reduce-scatter requires equal buffer lengths"
    );
    let mut range: Vec<(usize, usize)> = vec![(0, full_len); p];

    for j in (0..k).rev() {
        let chan = 1usize << dims[j];
        let bit = 1usize << j;
        let mut max_len = 0usize;
        let mut total: u64 = 0;
        let mut out = NodeSlab::with_capacity(p, slab.total_len() / 2 + p);
        for node in cube.iter_nodes() {
            // The lower node (cube bit clear, hence coordinate bit j clear)
            // keeps [lo, mid); its partner keeps [mid, hi). Both combine
            // as op(lower's element, upper's element).
            let (lower, upper) = (node & !chan, node | chan);
            let (lo, hi) = range[node];
            let mid = lo + (hi - lo) / 2;
            let (from, to) = if node == lower { (lo, mid) } else { (mid, hi) };
            let a = &slab[lower][from - lo..to - lo];
            let b = &slab[upper][from - lo..to - lo];
            out.push_seg_with(|buf| buf.extend(a.iter().zip(b).map(|(&x, &y)| op(x, y))));
            range[node] = (from, to);
            if node == lower {
                debug_assert_eq!(cube.extract_coords(node, dims) & bit, 0);
                max_len = max_len.max((hi - mid).max(mid - lo));
                total += (hi - lo) as u64;
            }
        }
        slab.swap(&mut out);
        hc.charge_message_step(max_len, total);
        hc.charge_flops(max_len);
    }
}

/// The `k` edge-disjoint spanning binomial trees (ESBTs) of a `k`-cube,
/// source node 0 — the structure underlying the all-port collective
/// schedules in [`crate::collective`] and the ported cost model in
/// [`crate::cost::allport_schedule`].
///
/// Tree 0 spans the nonzero nodes with a binomial-tree shape given by
/// the parent rule (for `z != 0`):
///
/// * `z` odd  → parent is `z` with its most significant bit cleared
///   (so node 1's parent is 0 — the source edge `0 → 1`);
/// * `z` even → parent is `z | 1` (flip bit 0 up).
///
/// Tree `j` is tree 0 with every node label rotated left by `j` within
/// the `k` coordinate bits: `parent_j(y) = rol_j(parent_0(ror_j(y)))`,
/// so its source edge is `0 → 2^j`. For any node `y != 0`, the map
/// `j ↦ dimension of y's parent edge in tree j` is a bijection on
/// `{0..k}`; hence the `k` trees' directed parent edges are pairwise
/// disjoint and together cover every directed cube edge except the `k`
/// edges *into* node 0 (verified exhaustively in the crate tests).
/// Every chain `even → odd (+1) → clear-msb` strictly descends every
/// two steps, so each tree is acyclic with height
/// [`crate::cost::esbt_height`]`(k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EsbtForest {
    k: u32,
}

impl EsbtForest {
    /// The forest for a `k`-dimensional cube (`1 <= k <= 60`).
    ///
    /// # Panics
    /// Panics when `k` is outside `1..=60`.
    #[must_use]
    pub fn new(k: u32) -> Self {
        assert!((1..=60).contains(&k), "EsbtForest dimension {k} out of range 1..=60");
        EsbtForest { k }
    }

    /// Cube dimension `k` = number of trees.
    #[inline]
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of cube nodes `2^k`.
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> usize {
        1usize << self.k
    }

    #[inline]
    fn ror(&self, x: usize, j: u32) -> usize {
        let mask = self.nodes() - 1;
        ((x >> j) | (x << (self.k - j))) & mask
    }

    #[inline]
    fn rol(&self, x: usize, j: u32) -> usize {
        self.ror(x, self.k - j)
    }

    /// Parent of `z != 0` in tree 0 (see the type docs for the rule).
    fn parent0(z: usize) -> usize {
        debug_assert!(z != 0);
        if z & 1 == 1 {
            let msb = 1usize << (usize::BITS - 1 - z.leading_zeros());
            z ^ msb
        } else {
            z | 1
        }
    }

    /// Parent of `node` in tree `j` (`None` for the source node 0).
    ///
    /// # Panics
    /// Panics when `tree >= k` or `node` is out of range.
    #[must_use]
    pub fn parent(&self, tree: u32, node: NodeId) -> Option<NodeId> {
        assert!(tree < self.k, "tree {tree} out of range for k={}", self.k);
        assert!(node < self.nodes(), "node {node} out of range");
        if node == 0 {
            return None;
        }
        let j = tree % self.k;
        if j == 0 {
            Some(Self::parent0(node))
        } else {
            Some(self.rol(Self::parent0(self.ror(node, j)), j))
        }
    }

    /// Edge depth of `node` below the source in tree `tree` (0 for the
    /// source node itself).
    #[must_use]
    pub fn depth(&self, tree: u32, node: NodeId) -> usize {
        let mut d = 0usize;
        let mut at = node;
        while let Some(p) = self.parent(tree, at) {
            at = p;
            d += 1;
        }
        d
    }

    /// Maximum edge depth over all nodes of tree `tree`; equals
    /// [`crate::cost::esbt_height`]`(k)` for every tree.
    #[must_use]
    pub fn height(&self, tree: u32) -> usize {
        (0..self.nodes()).map(|n| self.depth(tree, n)).max().unwrap_or(0)
    }

    /// Children of `node` in tree `tree`, ascending — the fixed tree-rank
    /// order that makes all-port combine order deterministic.
    #[must_use]
    pub fn children(&self, tree: u32, node: NodeId) -> Vec<NodeId> {
        (0..self.nodes()).filter(|&c| self.parent(tree, c) == Some(node)).collect()
    }

    /// All `2^k - 1` directed parent edges `(parent, child)` of tree
    /// `tree`, in ascending child order.
    pub fn edges(&self, tree: u32) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (1..self.nodes()).map(move |c| {
            let p = self.parent(tree, c).unwrap_or(0);
            (p, c)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::broadcast_slab;
    use crate::collective::testutil::slab_from_fn;
    use crate::cost::CostModel;

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }
    #[test]
    fn esbt_small_tree_matches_hand_derivation() {
        // k = 3, tree 0: 0→1; 1→{3,5}; 3→{2,7}; 5→{4}; 7→{6}.
        let f = EsbtForest::new(3);
        assert_eq!(f.parent(0, 1), Some(0));
        assert_eq!(f.parent(0, 3), Some(1));
        assert_eq!(f.parent(0, 5), Some(1));
        assert_eq!(f.parent(0, 2), Some(3));
        assert_eq!(f.parent(0, 7), Some(3));
        assert_eq!(f.parent(0, 4), Some(5));
        assert_eq!(f.parent(0, 6), Some(7));
        assert_eq!(f.children(0, 1), vec![3, 5]);
        // Tree j's source edge is 0 → 2^j.
        for j in 0..3 {
            assert_eq!(f.parent(j, 1 << j), Some(0));
        }
    }

    #[test]
    fn esbt_trees_are_spanning_and_bounded_by_height() {
        use crate::cost::esbt_height;
        for k in 1..=8u32 {
            let f = EsbtForest::new(k);
            for tree in 0..k {
                for node in 0..f.nodes() {
                    let d = f.depth(tree, node); // terminates => reaches 0
                    assert!(d <= esbt_height(k as usize), "k={k} tree={tree} node={node}");
                }
                assert_eq!(f.height(tree), esbt_height(k as usize), "k={k} tree={tree}");
                assert_eq!(f.edges(tree).count(), f.nodes() - 1);
            }
        }
    }

    #[test]
    fn esbt_forest_partitions_directed_edges() {
        use std::collections::HashSet;
        for k in 1..=8u32 {
            let f = EsbtForest::new(k);
            let mut seen: HashSet<(usize, usize)> = HashSet::new();
            for tree in 0..k {
                for (p, c) in f.edges(tree) {
                    assert_eq!((p ^ c).count_ones(), 1, "k={k} tree={tree}: {p}->{c} not an edge");
                    assert!(seen.insert((p, c)), "k={k}: duplicate directed edge {p}->{c}");
                }
            }
            // Every directed cube edge is used exactly once, except the k
            // edges into node 0.
            let expected = (k as usize) * f.nodes() - k as usize;
            assert_eq!(seen.len(), expected, "k={k}");
            for (_, c) in &seen {
                assert_ne!(*c, 0, "no tree edge points into the source");
            }
        }
    }

    #[test]
    fn scatter_allgather_broadcast_is_semantically_a_broadcast() {
        let mut hc = machine(4);
        let dims: Vec<u32> = hc.cube().iter_dims().collect();
        let payload: Vec<u64> = (0..37).collect();
        let mut locals = slab_from_fn(&hc, |n| if n == 0 { payload.clone() } else { vec![] });
        broadcast_scatter_allgather(&mut hc, &mut locals, &dims, 0);
        for (n, buf) in locals.iter_segs().enumerate() {
            assert_eq!(buf, &payload, "node {n}");
        }
    }

    #[test]
    fn scatter_allgather_with_nonzero_root() {
        let mut hc = machine(3);
        let dims = [0u32, 1, 2];
        let payload: Vec<u64> = (0..16).collect();
        let mut locals = slab_from_fn(&hc, |n| if n == 5 { payload.clone() } else { vec![] });
        broadcast_scatter_allgather(&mut hc, &mut locals, &dims, 5);
        for buf in locals.iter_segs() {
            assert_eq!(buf, &payload);
        }
    }

    /// Broadcast `len` elements from node 0 over a 6-cube under `cost`:
    /// `(binomial, scatter+allgather)` simulated times.
    fn broadcast_pair(cost: CostModel, len: usize) -> (f64, f64) {
        let dims: Vec<u32> = (0..6).collect();
        let run = |bcast: fn(&mut Hypercube, &mut NodeSlab<f64>, &[u32], usize)| {
            let mut hc = Hypercube::new(6, cost);
            let mut locals = slab_from_fn(&hc, |n| if n == 0 { vec![1.0f64; len] } else { vec![] });
            bcast(&mut hc, &mut locals, &dims, 0);
            hc.elapsed_us()
        };
        (run(broadcast_slab), run(broadcast_scatter_allgather))
    }

    #[test]
    fn large_messages_favour_scatter_allgather() {
        let (binomial, balanced) = broadcast_pair(CostModel::unit(), 4096);
        assert!(balanced < binomial, "balanced {balanced} vs binomial {binomial}");
    }

    #[test]
    fn small_messages_favour_binomial() {
        // With alpha big relative to beta*L, fewer start-ups win.
        let (binomial, balanced) =
            broadcast_pair(CostModel { alpha: 100.0, ..CostModel::unit() }, 4);
        assert!(binomial < balanced, "binomial {binomial} vs balanced {balanced}");
    }

    #[test]
    fn rabenseifner_allreduce_matches_butterfly() {
        let mut hc1 = machine(3);
        let dims: Vec<u32> = hc1.cube().iter_dims().collect();
        let make = |hc: &Hypercube| {
            slab_from_fn(hc, |n| (0..17).map(|i| ((n + 1) * (i + 1)) as f64).collect())
        };
        let mut a = make(&hc1);
        allreduce_rabenseifner(&mut hc1, &mut a, &dims, |x, y| x + y);

        let mut hc2 = machine(3);
        let mut b = make(&hc2);
        crate::collective::allreduce_slab(&mut hc2, &mut b, &dims, |x, y| x + y);

        for n in 0..8 {
            assert_eq!(a[n].len(), 17, "node {n}");
            for (x, y) in a[n].iter().zip(&b[n]) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rabenseifner_saves_bandwidth_on_large_buffers() {
        let dims: Vec<u32> = (0..6).collect();
        let len = 8192usize;
        let mut hc1 = machine(6);
        let mut a = slab_from_fn(&hc1, |_| vec![1.0f64; len]);
        allreduce_rabenseifner(&mut hc1, &mut a, &dims, |x, y| x + y);
        let mut hc2 = machine(6);
        let mut b = slab_from_fn(&hc2, |_| vec![1.0f64; len]);
        crate::collective::allreduce_slab(&mut hc2, &mut b, &dims, |x, y| x + y);
        // The bandwidth term alone: critical-path elements.
        assert!(10 * hc1.ticks().elements < 7 * hc2.ticks().elements);
    }
}
