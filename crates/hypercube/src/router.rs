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
use crate::route::Traffic;

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

/// Route every posted message through the cycle-accurate general router
/// as one individually addressed element, charging the machine, and
/// return the session statistics. Arrivals are read back through
/// [`Traffic::inbox`], sorted by tag.
///
/// Each node injects its messages in the order it posted them; the
/// cycle count depends on that order, not on how different sources'
/// posts interleave.
///
/// # Panics
/// Panics if `traffic` was posted for a different machine size.
pub fn route_elements<T>(hc: &mut Hypercube, traffic: &mut Traffic<T>) -> RouterStats {
    let cube = hc.cube();
    let p = cube.nodes();
    assert_eq!(traffic.p(), p, "traffic posted for a {}-node machine", traffic.p());
    let heads = &mut traffic.heads;

    // Per-node FIFO of header indices awaiting their next hop.
    let mut queues: Vec<VecDeque<usize>> = (0..p).map(|_| VecDeque::new()).collect();
    let mut injected = vec![0u64; p];
    for (k, h) in heads.iter().enumerate() {
        injected[h.at] += 1;
        if h.at != h.dst {
            queues[h.at].push_back(k);
        }
    }
    let mut stats = RouterStats {
        injected: heads.len() as u64,
        max_injected_per_node: injected.into_iter().max().unwrap_or(0),
        ..RouterStats::default()
    };

    let mut in_network: usize = queues.iter().map(VecDeque::len).sum();
    // Reusable per-cycle staging: (dest_node, header index).
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
                let diff = heads[k].dst ^ node;
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
            heads[k].at = dest;
            if heads[k].dst == dest {
                in_network -= 1;
            } else {
                queues[dest].push_back(k);
            }
        }
    }

    traffic.deliver();
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

    /// Node `node`'s arrivals as `(tag, value)` pairs.
    fn arrivals<T: Copy>(traffic: &Traffic<T>, node: usize) -> Vec<(u64, T)> {
        traffic.inbox(node).map(|(t, d)| (t, d[0])).collect()
    }

    #[test]
    fn empty_session_is_free() {
        let mut hc = machine(4);
        let mut traffic: Traffic<u32> = Traffic::new(hc.p());
        let stats = route_elements(&mut hc, &mut traffic);
        assert!((0..hc.p()).all(|n| traffic.inbox(n).len() == 0));
        assert_eq!(stats.cycles, 0);
        assert_eq!(hc.elapsed_us(), 0.0);
    }

    #[test]
    fn self_addressed_elements_arrive_without_cycles() {
        let mut hc = machine(3);
        let mut traffic = Traffic::new(hc.p());
        traffic.post(2, 2, 0, [7u32]);
        let stats = route_elements(&mut hc, &mut traffic);
        assert_eq!(arrivals(&traffic, 2), vec![(0, 7)]);
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.hops, 0);
    }

    #[test]
    fn single_element_takes_hamming_distance_cycles() {
        let mut hc = machine(4);
        let mut traffic = Traffic::new(hc.p());
        traffic.post(0b0000, 0b0111, 0, [1.5f64]);
        let stats = route_elements(&mut hc, &mut traffic);
        assert_eq!(traffic.inbox(0b0111).len(), 1);
        assert_eq!(stats.cycles, 3);
        assert_eq!(stats.hops, 3);
    }

    #[test]
    fn permutation_delivers_everything() {
        let mut hc = machine(5);
        let p = hc.p();
        let mask = p - 1;
        let mut traffic = Traffic::new(p);
        for n in 0..p {
            traffic.post(n, n ^ mask, 0, [n]);
        }
        let stats = route_elements(&mut hc, &mut traffic);
        for n in 0..p {
            assert_eq!(arrivals(&traffic, n), vec![(0, n ^ mask)]);
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
        let mut traffic = Traffic::new(p);
        for n in 1..p {
            for j in 0..k {
                traffic.post(n, 0, (n * k + j) as u64, [n as u32]);
            }
        }
        let stats = route_elements(&mut hc, &mut traffic);
        assert_eq!(traffic.inbox(0).len(), (p - 1) * k);
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
        let mut traffic = Traffic::new(p);
        for n in 0..p {
            traffic.post(n, 3, (p - n) as u64, [n]);
        }
        route_elements(&mut hc, &mut traffic);
        let tags: Vec<u64> = traffic.inbox(3).map(|(t, _)| t).collect();
        assert_eq!(tags, (1..=p as u64).collect::<Vec<_>>());
    }

    #[test]
    fn charges_injection_and_cycles() {
        let mut hc = machine(3);
        let mut traffic = Traffic::new(hc.p());
        traffic.post(0, 7, 0, [1u8]);
        traffic.post(0, 7, 1, [2u8]);
        let stats = route_elements(&mut hc, &mut traffic);
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
        use crate::route::route_blocks;
        let k = 64usize; // elements per node
                         // Use the CM-2 preset: the naive penalty is the per-element router
                         // overhead, which the unit model deliberately understates.
        let mut hc_blocked = Hypercube::new(5, CostModel::cm2());
        let p = hc_blocked.p();
        let mask = p - 1;
        let mut blocks = Traffic::new(p);
        for n in 0..p {
            blocks.post(n, n ^ mask, 0, vec![n as u32; k]);
        }
        route_blocks(&mut hc_blocked, &mut blocks);

        let mut hc_naive = Hypercube::new(5, CostModel::cm2());
        let mut elems = Traffic::new(p);
        for n in 0..p {
            for j in 0..k {
                elems.post(n, n ^ mask, j as u64, [n as u32]);
            }
        }
        route_elements(&mut hc_naive, &mut elems);

        assert!(
            hc_naive.elapsed_us() > 2.0 * hc_blocked.elapsed_us(),
            "naive {} vs blocked {}",
            hc_naive.elapsed_us(),
            hc_blocked.elapsed_us()
        );
    }
}
