//! Element-granular general-router simulation — the **naive baseline**.
//!
//! The abstract's headline engineering claim is that the primitive-based
//! implementation beat "a naive implementation" by almost an order of
//! magnitude. The naive implementation on the Connection Machine is the
//! obvious one: give every matrix element to a virtual processor and let
//! the *general router* move elements one at a time — each element is an
//! individually addressed message paying the router's per-message
//! overhead, and hot spots (everyone fetching the same pivot row) serialise
//! on the channels into the destination.
//!
//! This module simulates that router at petit-cycle granularity: each
//! directed channel `(node, dim)` forwards at most one element per cycle,
//! elements follow e-cube (lowest-differing-dimension-first) paths, and
//! the machine is charged `router_alpha` per injected element on the
//! busiest node plus `router_cycle` per cycle until the network drains.
//! Like [`crate::route::charge_blocks`] it moves no payload: the caller
//! computes the result and lists the elements' `(src, dst)` moves. The
//! contrast with `charge_blocks` — same traffic, `d` start-ups total
//! instead of one per element, no per-element cycling — is exactly the
//! paper's optimisation.

use std::collections::VecDeque;

use crate::machine::Hypercube;
use crate::topology::NodeId;

/// Statistics of one router session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Petit cycles until the network drained.
    pub cycles: u64,
    /// Total elements injected.
    pub injected: u64,
    /// Maximum elements injected by a single node.
    pub max_injected_per_node: u64,
    /// Total hops travelled by all elements.
    pub hops: u64,
}

/// Route one element per `(src, dst)` move through the cycle-accurate
/// general router, charging the machine, and return the session
/// statistics. A self-addressed move is injected but never travels.
///
/// Each node injects its moves in the order they are listed; the cycle
/// count depends on that order, not on how different sources' moves
/// interleave.
///
/// # Panics
/// Panics on a node out of range.
pub fn route_elements(
    hc: &mut Hypercube,
    moves: impl IntoIterator<Item = (NodeId, NodeId)>,
) -> RouterStats {
    let cube = hc.cube();
    let p = cube.nodes();
    // Each element's destination; `queues` hold indices into it.
    let mut dsts = Vec::new();
    // Per-node FIFO of elements awaiting their next hop.
    let mut queues: Vec<VecDeque<usize>> = (0..p).map(|_| VecDeque::new()).collect();
    let mut injected = vec![0u64; p];
    for (src, dst) in moves {
        assert!(src < p && dst < p, "element {src} -> {dst} out of range");
        injected[src] += 1;
        if src != dst {
            queues[src].push_back(dsts.len());
        }
        dsts.push(dst);
    }
    let mut stats = RouterStats {
        injected: dsts.len() as u64,
        max_injected_per_node: injected.into_iter().max().unwrap_or(0),
        ..RouterStats::default()
    };

    let mut in_network: usize = queues.iter().map(VecDeque::len).sum();
    // Reusable per-cycle staging: (next node, element index).
    let mut moved: Vec<(usize, usize)> = Vec::new();
    let mut used = vec![false; cube.dim() as usize];

    while in_network > 0 {
        stats.cycles += 1;
        moved.clear();
        for (node, queue) in queues.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            // Each directed channel (node, dim) carries at most one element
            // this cycle: the first queued element for each still-free
            // channel moves, the rest keep their order. E-cube: an element
            // uses its lowest differing dimension.
            used.fill(false);
            queue.retain(|&k| {
                let diff = dsts[k] ^ node;
                debug_assert!(diff != 0);
                let dim = diff.trailing_zeros() as usize;
                if used[dim] {
                    return true;
                }
                used[dim] = true;
                moved.push((node ^ (1usize << dim), k));
                false
            });
        }
        debug_assert!(!moved.is_empty(), "router deadlock: nothing moved");
        stats.hops += moved.len() as u64;
        for &(dest, k) in &moved {
            if dsts[k] == dest {
                in_network -= 1;
            } else {
                queues[dest].push_back(k);
            }
        }
    }

    hc.charge_router_injection(stats.max_injected_per_node as usize, stats.injected);
    hc.charge_router_cycles(stats.cycles);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    #[test]
    fn empty_session_is_free() {
        let mut hc = machine(4);
        let stats = route_elements(&mut hc, []);
        assert_eq!(stats, RouterStats::default());
        assert_eq!(hc.elapsed_us(), 0.0);
    }

    #[test]
    fn self_addressed_elements_arrive_without_cycles() {
        let mut hc = machine(3);
        let stats = route_elements(&mut hc, [(2, 2)]);
        assert_eq!(stats.injected, 1, "a self-addressed element is still injected");
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.hops, 0);
    }

    #[test]
    fn single_element_takes_hamming_distance_cycles() {
        let mut hc = machine(4);
        let stats = route_elements(&mut hc, [(0b0000, 0b0111)]);
        assert_eq!(stats.cycles, 3);
        assert_eq!(stats.hops, 3);
    }

    #[test]
    fn permutation_delivers_everything() {
        let mut hc = machine(5);
        let p = hc.p();
        let stats = route_elements(&mut hc, (0..p).map(|n| (n, n ^ (p - 1))));
        assert_eq!(stats.injected, p as u64);
        assert_eq!(stats.hops, (p * 5) as u64, "every element crosses all 5 dims");
        assert_eq!(stats.cycles, 5, "disjoint e-cube paths never wait");
    }

    #[test]
    fn hotspot_serialises_on_destination_channels() {
        // Everyone sends k elements to node 0. Node 0 has only d incoming
        // channels, so draining takes at least total/(d) cycles.
        let mut hc = machine(4);
        let p = hc.p();
        let k = 4usize;
        let stats = route_elements(&mut hc, (1..p).flat_map(|n| (0..k).map(move |_| (n, 0))));
        let total = ((p - 1) * k) as u64;
        assert_eq!(stats.injected, total);
        assert!(
            stats.cycles >= total / 4,
            "hotspot must serialise: {} cycles for {} elements",
            stats.cycles,
            total
        );
    }

    #[test]
    fn charges_injection_and_cycles() {
        let mut hc = machine(3);
        let stats = route_elements(&mut hc, [(0, 7), (0, 7)]);
        // unit model: router_alpha = 1 per injected element on busiest
        // node (2), router_cycle = 1 per cycle.
        assert_eq!(hc.elapsed_us(), 2.0 + stats.cycles as f64);
        assert_eq!(hc.counters().router_elements, 2);
        assert_eq!(hc.counters().router_cycles, stats.cycles);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        route_elements(&mut machine(2), [(0, 99)]);
    }

    #[test]
    fn blocked_router_beats_element_router_on_bulk_traffic() {
        // The whole point of the paper: same permutation traffic, the
        // blocked e-cube router pays d start-ups; the element router pays
        // one overhead per element and cycles per element-hop.
        use crate::route::charge_blocks;
        let k = 64usize; // elements per node
                         // Use the CM-2 preset: the naive penalty is the per-element router
                         // overhead, which the unit model deliberately understates.
        let mut hc_blocked = Hypercube::new(5, CostModel::cm2());
        let p = hc_blocked.p();
        let mask = p - 1;
        charge_blocks(&mut hc_blocked, (0..p).map(|n| (n, n ^ mask, k)));

        let mut hc_naive = Hypercube::new(5, CostModel::cm2());
        route_elements(&mut hc_naive, (0..p).flat_map(|n| (0..k).map(move |_| (n, n ^ mask))));

        assert!(
            hc_naive.elapsed_us() > 2.0 * hc_blocked.elapsed_us(),
            "naive {} vs blocked {}",
            hc_naive.elapsed_us(),
            hc_blocked.elapsed_us()
        );
    }
}
