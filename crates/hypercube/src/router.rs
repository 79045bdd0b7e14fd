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
//! The contrast with [`crate::route::route_blocks`] — same traffic, `d`
//! start-ups total instead of one per element, no per-element cycling —
//! is exactly the paper's optimisation.

use std::collections::VecDeque;

use crate::machine::Hypercube;
use crate::topology::NodeId;

/// An individually routed element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemMsg<T> {
    /// Destination node.
    pub dst: NodeId,
    /// Arrival-ordering key.
    pub tag: u64,
    /// Payload.
    pub val: T,
}

impl<T> ElemMsg<T> {
    /// Convenience constructor.
    pub fn new(dst: NodeId, tag: u64, val: T) -> Self {
        ElemMsg { dst, tag, val }
    }
}

/// Statistics of one router session, returned alongside the arrivals.
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

/// Route every element to its destination through the cycle-accurate
/// general router, charging the machine, and return per-node arrivals
/// sorted by tag plus the session statistics.
pub fn route_elements<T: Copy>(
    hc: &mut Hypercube,
    outgoing: Vec<Vec<ElemMsg<T>>>,
) -> (Vec<Vec<ElemMsg<T>>>, RouterStats) {
    let cube = hc.cube();
    let p = cube.nodes();
    let d = cube.dim() as usize;
    assert_eq!(outgoing.len(), p, "one outgoing list per node expected");

    let mut stats = RouterStats::default();

    // Per-node queue of elements awaiting their next hop, plus arrivals.
    let mut queues: Vec<VecDeque<ElemMsg<T>>> = Vec::with_capacity(p);
    let mut arrived: Vec<Vec<ElemMsg<T>>> = (0..p).map(|_| Vec::new()).collect();
    for (node, list) in outgoing.into_iter().enumerate() {
        stats.injected += list.len() as u64;
        stats.max_injected_per_node = stats.max_injected_per_node.max(list.len() as u64);
        let mut q = VecDeque::with_capacity(list.len());
        for m in list {
            assert!(cube.contains(m.dst), "element destination {} out of range", m.dst);
            if m.dst == node {
                arrived[node].push(m);
            } else {
                q.push_back(m);
            }
        }
        queues.push(q);
    }

    let mut in_network: u64 = queues.iter().map(|q| q.len() as u64).sum();
    // Reusable per-cycle staging: (dest_node, element).
    let mut moved: Vec<(NodeId, ElemMsg<T>)> = Vec::new();

    while in_network > 0 {
        stats.cycles += 1;
        moved.clear();
        for node in 0..p {
            if queues[node].is_empty() {
                continue;
            }
            // Each directed channel (node, dim) carries at most one element
            // this cycle. Scan the queue once, picking the first element
            // for each still-free channel; e-cube: an element uses its
            // lowest differing dimension.
            let mut used = vec![false; d];
            let qlen = queues[node].len();
            let mut kept = 0usize;
            for _ in 0..qlen {
                // vmplint: allow(p1) — loop bound is the queue length captured two lines up
                let m = queues[node].pop_front().expect("queue length checked");
                let diff = m.dst ^ node;
                debug_assert!(diff != 0);
                let dim = diff.trailing_zeros() as usize;
                if !used[dim] {
                    used[dim] = true;
                    moved.push((node ^ (1usize << dim), m));
                    stats.hops += 1;
                } else {
                    queues[node].push_back(m);
                    kept += 1;
                }
            }
            debug_assert_eq!(queues[node].len(), kept);
        }
        debug_assert!(!moved.is_empty(), "router deadlock: nothing moved");
        for &(dest, m) in &moved {
            if m.dst == dest {
                arrived[dest].push(m);
                in_network -= 1;
            } else {
                queues[dest].push_back(m);
            }
        }
    }

    for list in &mut arrived {
        list.sort_by_key(|m| m.tag);
    }

    hc.charge_router_injection(stats.max_injected_per_node as usize, stats.injected);
    hc.charge_router_cycles(stats.cycles);
    (arrived, stats)
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
        let out: Vec<Vec<ElemMsg<u32>>> = (0..hc.p()).map(|_| Vec::new()).collect();
        let (arrived, stats) = route_elements(&mut hc, out);
        assert!(arrived.iter().all(Vec::is_empty));
        assert_eq!(stats.cycles, 0);
        assert_eq!(hc.elapsed_us(), 0.0);
    }

    #[test]
    fn self_addressed_elements_arrive_without_cycles() {
        let mut hc = machine(3);
        let mut out: Vec<Vec<_>> = (0..hc.p()).map(|_| Vec::new()).collect();
        out[2].push(ElemMsg::new(2, 0, 7u32));
        let (arrived, stats) = route_elements(&mut hc, out);
        assert_eq!(arrived[2], vec![ElemMsg::new(2, 0, 7)]);
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.hops, 0);
    }

    #[test]
    fn single_element_takes_hamming_distance_cycles() {
        let mut hc = machine(4);
        let mut out: Vec<Vec<_>> = (0..hc.p()).map(|_| Vec::new()).collect();
        out[0b0000].push(ElemMsg::new(0b0111, 0, 1.5f64));
        let (arrived, stats) = route_elements(&mut hc, out);
        assert_eq!(arrived[0b0111].len(), 1);
        assert_eq!(stats.cycles, 3);
        assert_eq!(stats.hops, 3);
    }

    #[test]
    fn permutation_delivers_everything() {
        let mut hc = machine(5);
        let p = hc.p();
        let mask = p - 1;
        let out: Vec<Vec<ElemMsg<usize>>> =
            (0..p).map(|n| vec![ElemMsg::new(n ^ mask, 0, n)]).collect();
        let (arrived, stats) = route_elements(&mut hc, out);
        for n in 0..p {
            assert_eq!(arrived[n].len(), 1);
            assert_eq!(arrived[n][0].val, n ^ mask);
        }
        assert_eq!(stats.injected, p as u64);
        assert_eq!(stats.hops, (p * 5) as u64, "every element crosses all 5 dims");
    }

    #[test]
    fn hotspot_serialises_on_destination_channels() {
        // Everyone sends k elements to node 0. Node 0 has only d incoming
        // channels, so draining takes at least total/(d) cycles.
        let mut hc = machine(4);
        let p = hc.p();
        let k = 4usize;
        let out: Vec<Vec<ElemMsg<u32>>> = (0..p)
            .map(|n| {
                if n == 0 {
                    vec![]
                } else {
                    (0..k).map(|j| ElemMsg::new(0, (n * k + j) as u64, n as u32)).collect()
                }
            })
            .collect();
        let (arrived, stats) = route_elements(&mut hc, out);
        assert_eq!(arrived[0].len(), (p - 1) * k);
        let total = ((p - 1) * k) as u64;
        assert!(
            stats.cycles >= total / 4,
            "hotspot must serialise: {} cycles for {} elements",
            stats.cycles,
            total
        );
    }

    #[test]
    fn arrivals_are_tag_sorted() {
        let mut hc = machine(3);
        let p = hc.p();
        let out: Vec<Vec<ElemMsg<usize>>> =
            (0..p).map(|n| vec![ElemMsg::new(3, (p - n) as u64, n)]).collect();
        let (arrived, _) = route_elements(&mut hc, out);
        let tags: Vec<u64> = arrived[3].iter().map(|m| m.tag).collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_eq!(tags, sorted);
    }

    #[test]
    fn charges_injection_and_cycles() {
        let mut hc = machine(3);
        let mut out: Vec<Vec<_>> = (0..hc.p()).map(|_| Vec::new()).collect();
        out[0].push(ElemMsg::new(7, 0, 1u8));
        out[0].push(ElemMsg::new(7, 1, 2u8));
        let (_, stats) = route_elements(&mut hc, out);
        // unit model: router_alpha = 1 per injected element on busiest
        // node (2), router_cycle = 1 per cycle.
        assert_eq!(hc.elapsed_us(), 2.0 + stats.cycles as f64);
        assert_eq!(hc.counters().router_elements, 2);
        assert_eq!(hc.counters().router_cycles, stats.cycles);
    }

    #[test]
    fn blocked_router_beats_element_router_on_bulk_traffic() {
        // The whole point of the paper: same permutation traffic, the
        // blocked e-cube router pays d start-ups; the element router pays
        // one overhead per element and cycles per element-hop.
        use crate::route::{route_blocks, Block};
        let k = 64usize; // elements per node
                         // Use the CM-2 preset: the naive penalty is the per-element router
                         // overhead, which the unit model deliberately understates.
        let mut hc_blocked = Hypercube::new(5, CostModel::cm2());
        let p = hc_blocked.p();
        let mask = p - 1;
        let out_blocks: Vec<Vec<Block<u32>>> =
            (0..p).map(|n| vec![Block::new(n ^ mask, 0, vec![n as u32; k])]).collect();
        route_blocks(&mut hc_blocked, out_blocks);

        let mut hc_naive = Hypercube::new(5, CostModel::cm2());
        let out_elems: Vec<Vec<ElemMsg<u32>>> = (0..p)
            .map(|n| (0..k).map(|j| ElemMsg::new(n ^ mask, j as u64, n as u32)).collect())
            .collect();
        route_elements(&mut hc_naive, out_elems);

        assert!(
            hc_naive.elapsed_us() > 2.0 * hc_blocked.elapsed_us(),
            "naive {} vs blocked {}",
            hc_naive.elapsed_us(),
            hc_blocked.elapsed_us()
        );
    }
}
