//! Blocked dimension-ordered (e-cube) routing, charged from a message
//! list.
//!
//! Every irregular data movement in the library (embedding changes,
//! transposes, shifts, stream compaction, indexed gather, the panel
//! fan-out) computes its result on the host and charges the machine for
//! the messages that would carry it: [`charge_blocks`] takes each message
//! as `(src, dst, len)` and routes it in `d` store-and-forward
//! supersteps, resolving dimension 0 first, then 1, and so on. In each
//! superstep a node bundles everything it holds that still differs from
//! its destination in the current dimension into **one** message to the
//! corresponding neighbour, so the start-up cost is at most `d * alpha`
//! regardless of how many blocks are in flight — this blocking is
//! precisely what the paper's primitives buy over the naive
//! element-per-message router (see [`crate::router`] for that baseline).
//!
//! No payload travels. A hop decision reads only the node, the
//! dimension, the step and the pass, so the charge does not depend on the
//! order the messages are listed in, and a block addressed to its own
//! node never moves and is never charged.

use crate::fault::MAX_RETRIES;
use crate::machine::{FaultCtx, Hypercube};
use crate::topology::{Cube, NodeId};

/// One block in flight: the node holding it now, its destination and its
/// length.
#[derive(Debug, Clone, Copy)]
struct Header {
    at: NodeId,
    dst: NodeId,
    len: usize,
    /// Took a detour this pass; rests until the next pass.
    parked: bool,
}

/// Charge the machine for delivering `(src, dst, len)` blocks by
/// dimension-ordered store-and-forward routing: one blocked message
/// superstep per cube dimension that carries any traffic.
///
/// When fault state is installed on the machine the same sweep consults
/// its one fault context (plan and degradation host map): a transiently
/// dropped block stays at the sender and retransmits on a later pass
/// (with backoff), a block facing a permanently dead link detours through
/// a healthy perpendicular dimension, and the e-cube sweep repeats until
/// every block is home — so any recoverable plan costs more modeled time
/// and changes nothing else. An empty block can be dropped like any
/// other, so it counts.
///
/// # Panics
/// Panics on a node out of range, or if the installed fault plan leaves
/// some block with no usable route.
pub fn charge_blocks(hc: &mut Hypercube, moves: impl IntoIterator<Item = (NodeId, NodeId, usize)>) {
    let p = hc.p();
    let mut heads: Vec<Header> = moves
        .into_iter()
        .map(|(src, dst, len)| {
            assert!(src < p && dst < p, "block {src} -> {dst} out of range");
            Header { at: src, dst, len, parked: false }
        })
        .collect();
    sweeps(hc, &mut heads);
}

/// What happens to a block whose next e-cube hop is `node -> node^bit`.
enum Hop {
    /// Crosses the link (or is a local copy between co-hosted nodes).
    Forward,
    /// Transiently dropped: stays at `node` and retransmits next pass.
    Drop,
    /// The link is dead: two healthy hops via this perpendicular
    /// dimension land the block with the dimension resolved.
    Detour(u32),
    /// The link is dead and no bypass is healthy this step.
    Stuck,
}

impl FaultCtx {
    fn hop(&self, cube: &Cube, node: NodeId, d: u32, step: u64, pass: u32) -> Hop {
        let (pa, pb) = (self.host_map[node], self.host_map[node ^ (1usize << d)]);
        if pa == pb {
            Hop::Forward
        } else if self.plan.link_dead(pa, pb, step) {
            self.detour_dim(cube, node, d, step).map_or(Hop::Stuck, Hop::Detour)
        } else if pass <= MAX_RETRIES && self.plan.transient_drop(pa, pb, step, pass) {
            Hop::Drop
        } else {
            Hop::Forward
        }
    }

    /// First dimension `d2 != avoid` giving a fully healthy two-hop
    /// bypass `node -> node^d2 -> node^d2^avoid` around the dead `avoid`
    /// link.
    fn detour_dim(&self, cube: &Cube, node: NodeId, avoid: u32, step: u64) -> Option<u32> {
        let healthy = |a: NodeId, b: NodeId| {
            let (pa, pb) = (self.host_map[a], self.host_map[b]);
            pa == pb || !self.plan.link_dead(pa, pb, step)
        };
        cube.iter_dims().find(|&d2| {
            if d2 == avoid {
                return false;
            }
            let via = node ^ (1usize << d2);
            healthy(node, via) && healthy(via, via ^ (1usize << avoid))
        })
    }
}

/// Per-node element counts of one superstep, reset on every read.
struct Loads {
    per_node: Vec<usize>,
    touched: Vec<NodeId>,
}

impl Loads {
    fn new(p: usize) -> Self {
        Loads { per_node: vec![0; p], touched: Vec::new() }
    }

    fn add(&mut self, node: NodeId, elems: usize) {
        if elems == 0 {
            return;
        }
        if self.per_node[node] == 0 {
            self.touched.push(node);
        }
        self.per_node[node] += elems;
    }

    /// `(busiest node's elements, machine-wide elements)`, then reset.
    fn take(&mut self) -> (usize, u64) {
        let (mut max, mut total) = (0usize, 0u64);
        for node in self.touched.drain(..) {
            let elems = std::mem::take(&mut self.per_node[node]);
            max = max.max(elems);
            total += elems as u64;
        }
        (max, total)
    }
}

/// E-cube sweeps until every block is delivered: one sweep resolves
/// everything on a machine without fault state.
///
/// Under a fault context, pass `k` is retransmission round `k` for any
/// block dropped in pass `k-1` (the block really stayed put); once the
/// retry budget is spent, drop decisions stop applying — the escalation
/// path — so delivery is guaranteed for any plan that leaves the cube
/// connected. Blocks whose next e-cube hop crosses a dead link take a
/// two-hop bypass through a healthy perpendicular dimension
/// (`u -> u^d2 -> u^d2^d`), which *completes* the dead dimension —
/// crucial, because a sidestep that left dimension `d` unresolved would
/// be undone by the next pass's ascending sweep whenever `d2 < d`,
/// ping-ponging forever. The bypass perturbs only dimension `d2`, which
/// a later pass re-resolves over a different physical link.
fn sweeps(hc: &mut Hypercube, heads: &mut [Header]) {
    // The sweep charges the machine while it reads the fault context, so
    // the context steps out for the duration; no charge reads it.
    let fault_ctx = hc.fault.take();
    let (faults, cube) = (fault_ctx.as_deref(), hc.cube());
    let mut forwarded = Loads::new(cube.nodes());
    let mut detoured = Loads::new(cube.nodes());
    let mut pass: u32 = 0;
    loop {
        for d in cube.iter_dims() {
            let bit = 1usize << d;
            let step = hc.fault_step();
            let mut drops = 0u64;
            let mut detours = 0u64;
            for h in heads.iter_mut() {
                if h.parked || (h.dst ^ h.at) & bit == 0 {
                    continue;
                }
                let node = h.at;
                match faults.map_or(Hop::Forward, |f| f.hop(&cube, node, d, step, pass)) {
                    Hop::Forward => {
                        forwarded.add(node, h.len);
                        h.at ^= bit;
                    }
                    Hop::Drop => drops += 1,
                    Hop::Detour(d2) => {
                        // Blocks that took a bypass rest until the next
                        // pass, which re-resolves the perturbed dimension.
                        detoured.add(node, h.len);
                        h.at = node ^ (1usize << d2) ^ bit;
                        h.parked = true;
                        detours += 1;
                    }
                    Hop::Stuck => {}
                }
            }
            let (max_fwd, total_fwd) = forwarded.take();
            if max_fwd > 0 {
                hc.charge_message_step(max_fwd, total_fwd);
            }
            let (max_detour, total_detour) = detoured.take();
            if total_detour > 0 {
                // The bypass is two store-and-forward hops.
                hc.charge_message_step(max_detour, total_detour);
                hc.charge_message_step(max_detour, total_detour);
            }
            let counters = hc.counters_mut();
            counters.transient_drops += drops;
            counters.reroutes += detours;
            counters.detour_hops += 2 * detours;
        }
        for h in heads.iter_mut() {
            h.parked = false;
        }

        if faults.is_none() {
            break;
        }
        let undelivered = heads.iter().filter(|h| h.at != h.dst).count();
        if undelivered == 0 {
            break;
        }
        pass += 1;
        assert!(
            pass <= MAX_RETRIES + 4 * (cube.dim() + 2),
            "fault plan leaves {undelivered} block(s) unroutable"
        );
        // A retransmission round: bounded exponential backoff before the
        // re-sweep.
        hc.charge_retry(pass - 1);
    }
    hc.fault = fault_ctx;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::fault::FaultPlan;

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    #[test]
    fn empty_routing_is_free() {
        let mut hc = machine(4);
        charge_blocks(&mut hc, []);
        assert_eq!(hc.elapsed_us(), 0.0, "no traffic, no charge");
        assert_eq!(hc.counters().message_steps, 0);
    }

    #[test]
    fn self_posted_message_is_free_even_under_faults() {
        for plan in [None, Some(FaultPlan::none(11).with_drops(1.0, 0, u64::MAX))] {
            let mut hc = machine(3);
            if let Some(plan) = plan {
                hc.install_faults(plan);
            }
            charge_blocks(&mut hc, [(5, 5, 4)]);
            assert_eq!(hc.ticks(), crate::cost::Ticks::default(), "no tick");
            assert_eq!(*hc.counters(), crate::counters::Counters::default(), "no counter");
        }
    }

    #[test]
    fn single_block_crosses_hamming_distance_steps() {
        let mut hc = machine(4);
        // 0b0000 -> 0b1011: distance 3, so 3 charged supersteps.
        charge_blocks(&mut hc, [(0b0000, 0b1011, 10)]);
        assert_eq!(hc.counters().message_steps, 3);
        // Each step carries the full 10 elements on the critical channel.
        assert_eq!(hc.elapsed_us(), 3.0 * (1.0 + 10.0));
    }

    #[test]
    fn permutation_routing_touches_each_dimension_once() {
        // Bit-complement permutation: node n sends to !n. Every block must
        // cross every dimension, but blocking keeps it to d supersteps.
        let mut hc = machine(5);
        let p = hc.p();
        charge_blocks(&mut hc, (0..p).map(|n| (n, n ^ (p - 1), 4)));
        assert_eq!(hc.counters().message_steps, 5, "exactly d supersteps");
        // Each node forwards exactly its one 4-element block per step.
        assert_eq!(hc.elapsed_us(), 5.0 * (1.0 + 4.0));
    }

    #[test]
    fn congestion_shows_up_as_channel_load() {
        // All nodes send 8 elements to node 0: dimension-ordered routing
        // concentrates the traffic as it goes, so late channels carry
        // many blocks at once.
        let mut hc = machine(4);
        charge_blocks(&mut hc, (1..16).map(|n| (n, 0, 8)));
        assert!(
            hc.counters().max_channel_load >= 8 * 8 / 2,
            "tree concentration loads late channels"
        );
    }

    #[test]
    fn resilient_route_with_empty_plan_matches_plain_cost() {
        let blocks = |p: usize| (0..p).map(move |n| (n, (n * 5 + 3) % p, 6));
        let mut plain = machine(4);
        charge_blocks(&mut plain, blocks(16));
        let mut resil = machine(4);
        resil.install_faults(FaultPlan::none(3));
        charge_blocks(&mut resil, blocks(16));
        assert_eq!(plain.elapsed_us(), resil.elapsed_us(), "identical modeled cost");
        assert_eq!(plain.counters(), resil.counters());
    }

    #[test]
    fn dropped_blocks_really_retry_and_still_deliver() {
        let mut hc = machine(3);
        hc.install_faults(FaultPlan::none(11).with_drops(0.6, 0, u64::MAX));
        let p = hc.p();
        charge_blocks(&mut hc, (0..p).map(|n| (n, p - 1 - n, 4)));
        assert!(hc.counters().transient_drops > 0, "plan actually fired");
        assert!(hc.counters().retries > 0, "recovery actually retried");
    }

    #[test]
    fn dead_link_blocks_really_detour_and_still_deliver() {
        let mut hc = machine(3);
        // Kill the dim-0 link 0-1 from the start; 0 -> 1 must detour.
        hc.install_faults(FaultPlan::none(1).with_link_fault(0, 1, 0));
        charge_blocks(&mut hc, [(0, 1, 3)]);
        assert!(hc.counters().reroutes > 0, "detour actually taken");
        assert!(hc.counters().detour_hops > 0);
        // Direct route is 1 hop; the detour path is longer.
        assert!(hc.counters().message_steps > 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        charge_blocks(&mut machine(2), [(0, 99, 1)]);
    }
}
