//! Blocked dimension-ordered (e-cube) routing.
//!
//! [`route_blocks`] is the workhorse for every irregular data movement in
//! the library (embedding changes, transposes, extract/insert traffic):
//! each node posts *blocks* addressed to arbitrary destination nodes, and
//! the router delivers them in `d` store-and-forward supersteps, resolving
//! dimension 0 first, then 1, and so on. In each superstep a node bundles
//! everything it holds that still differs from its destination in the
//! current dimension into **one** message to the corresponding neighbour,
//! so the start-up cost is at most `d * alpha` regardless of how many
//! blocks are in flight — this blocking is precisely what the paper's
//! primitives buy over the naive element-per-message router (see
//! [`crate::router`] for that baseline).
//!
//! Delivery is deterministic: arrivals at each node are sorted by the
//! caller-supplied `tag`, so downstream code can reassemble rows and
//! columns in global index order without caring about routing order.

use crate::fault::{FaultPlan, ResilientConfig};
use crate::machine::Hypercube;
use crate::topology::{Cube, NodeId};

/// A routable unit: a contiguous run of elements bound for `dst`.
///
/// `tag` orders arrivals at the destination; callers use global indices
/// (e.g. the first global element index of the run) so reassembly is
/// order-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block<T> {
    /// Destination node.
    pub dst: NodeId,
    /// Arrival-ordering key (unique per destination for determinism).
    pub tag: u64,
    /// Payload elements.
    pub data: Vec<T>,
}

impl<T> Block<T> {
    /// Convenience constructor.
    pub fn new(dst: NodeId, tag: u64, data: Vec<T>) -> Self {
        Block { dst, tag, data }
    }
}

/// Deliver every posted block to its destination via dimension-ordered
/// store-and-forward routing, charging the machine one blocked message
/// superstep per cube dimension that carries any traffic.
///
/// When fault state is installed on the machine the same sweep consults
/// it: transiently dropped blocks genuinely stay at the sender and
/// retransmit on a later pass (with backoff), traffic facing a
/// permanently dead link genuinely detours through a healthy
/// perpendicular dimension, and the e-cube sweep repeats until every
/// block is home — so delivery under any recoverable plan is
/// bit-identical to the fault-free run, at a higher modeled cost.
///
/// Returns the per-node arrival lists, each sorted by `Block::tag`.
///
/// # Panics
/// Panics if `outgoing.len() != hc.p()` or any block's `dst` is out of
/// range, or if the installed fault plan leaves some block with no
/// usable route.
pub fn route_blocks<T>(hc: &mut Hypercube, outgoing: Vec<Vec<Block<T>>>) -> Vec<Vec<Block<T>>> {
    let cube = hc.cube();
    let p = cube.nodes();
    assert_eq!(outgoing.len(), p, "one outgoing list per node expected");

    // `in_flight[n]` = blocks currently held at node n (en route or home).
    let mut in_flight = outgoing;
    for lists in &in_flight {
        for b in lists {
            assert!(cube.contains(b.dst), "block destination {} out of range", b.dst);
        }
    }

    let faults = hc.fault_plan().zip(hc.resilient_config()).map(|(plan, config)| Faults {
        plan: plan.clone(),
        config: *config,
        hosts: (0..p).map(|n| hc.host_of(n)).collect(),
    });
    sweeps(hc, &mut in_flight, faults.as_ref());

    for (node, lists) in in_flight.iter_mut().enumerate() {
        debug_assert!(lists.iter().all(|b| b.dst == node), "all blocks delivered");
        lists.sort_by_key(|b| b.tag);
    }
    in_flight
}

/// The machine's fault state, read once per [`route_blocks`] call.
struct Faults {
    plan: FaultPlan,
    config: ResilientConfig,
    /// `hosts[logical]` = the physical node hosting it after degradation.
    hosts: Vec<NodeId>,
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

impl Faults {
    fn hop(&self, cube: &Cube, node: NodeId, d: u32, step: u64, pass: u32) -> Hop {
        let (pa, pb) = (self.hosts[node], self.hosts[node ^ (1usize << d)]);
        if pa == pb {
            Hop::Forward
        } else if self.plan.link_dead(pa, pb, step) {
            self.detour_dim(cube, node, d, step).map_or(Hop::Stuck, Hop::Detour)
        } else if pass <= self.config.max_retries && self.plan.transient_drop(pa, pb, step, pass) {
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
            let (pa, pb) = (self.hosts[a], self.hosts[b]);
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

/// E-cube sweeps until every block is delivered: one sweep resolves
/// everything on a machine without fault state.
///
/// Under `faults`, pass `k` is retransmission round `k` for any block
/// dropped in pass `k-1` (the block really stayed put); once the retry
/// budget is spent, drop decisions stop applying — the escalation path —
/// so delivery is guaranteed for any plan that leaves the cube
/// connected. Blocks whose next e-cube hop crosses a dead link take a
/// two-hop bypass through a healthy perpendicular dimension
/// (`u -> u^d2 -> u^d2^d`), which *completes* the dead dimension —
/// crucial, because a sidestep that left dimension `d` unresolved would
/// be undone by the next pass's ascending sweep whenever `d2 < d`,
/// ping-ponging forever. The bypass perturbs only dimension `d2`, which
/// a later pass re-resolves over a different physical link.
fn sweeps<T>(hc: &mut Hypercube, in_flight: &mut [Vec<Block<T>>], faults: Option<&Faults>) {
    let cube = hc.cube();
    let p = cube.nodes();
    let mut pass: u32 = 0;
    loop {
        // Blocks that took a bypass this pass rest until the next pass,
        // which re-resolves the perturbed perpendicular dimension.
        // Allocated on the first detour.
        let mut parked: Vec<Vec<Block<T>>> = Vec::new();

        for d in cube.iter_dims() {
            let bit = 1usize << d;
            let step = hc.fault_step();
            let mut max_fwd_elems = 0usize;
            let mut total_fwd_elems: u64 = 0;
            let mut any = false;
            let mut max_detour_elems = 0usize;
            let mut total_detour_elems: u64 = 0;
            let mut drops = 0u64;
            let mut detours = 0u64;
            let mut forwarded: Vec<Vec<Block<T>>> = (0..p).map(|_| Vec::new()).collect();
            for node in 0..p {
                let held = std::mem::take(&mut in_flight[node]);
                let mut stay = Vec::with_capacity(held.len());
                let mut fwd_elems = 0usize;
                let mut detour_elems = 0usize;
                for b in held {
                    if (b.dst ^ node) & bit == 0 {
                        stay.push(b);
                        continue;
                    }
                    match faults.map_or(Hop::Forward, |f| f.hop(&cube, node, d, step, pass)) {
                        Hop::Forward => {
                            fwd_elems += b.data.len();
                            forwarded[node ^ bit].push(b);
                        }
                        Hop::Drop => {
                            drops += 1;
                            stay.push(b);
                        }
                        Hop::Detour(d2) => {
                            detour_elems += b.data.len();
                            if parked.is_empty() {
                                parked.resize_with(p, Vec::new);
                            }
                            parked[node ^ (1usize << d2) ^ bit].push(b);
                            detours += 1;
                        }
                        Hop::Stuck => stay.push(b),
                    }
                }
                in_flight[node] = stay;
                if fwd_elems > 0 {
                    any = true;
                    max_fwd_elems = max_fwd_elems.max(fwd_elems);
                    total_fwd_elems += fwd_elems as u64;
                }
                if detour_elems > 0 {
                    max_detour_elems = max_detour_elems.max(detour_elems);
                    total_detour_elems += detour_elems as u64;
                }
            }
            for (node, mut arr) in forwarded.into_iter().enumerate() {
                in_flight[node].append(&mut arr);
            }
            if any {
                hc.charge_message_step(max_fwd_elems, total_fwd_elems);
            }
            if total_detour_elems > 0 {
                // The bypass is two store-and-forward hops.
                hc.charge_message_step(max_detour_elems, total_detour_elems);
                hc.charge_message_step(max_detour_elems, total_detour_elems);
            }
            let counters = hc.counters_mut();
            counters.transient_drops += drops;
            counters.reroutes += detours;
            counters.detour_hops += 2 * detours;
        }
        for (node, mut arr) in parked.into_iter().enumerate() {
            in_flight[node].append(&mut arr);
        }

        let Some(f) = faults else { break };
        let undelivered = in_flight
            .iter()
            .enumerate()
            .flat_map(|(n, lists)| lists.iter().filter(move |b| b.dst != n))
            .count();
        if undelivered == 0 {
            break;
        }
        pass += 1;
        assert!(
            pass <= f.config.max_retries + 4 * (cube.dim() + 2),
            "fault plan leaves {undelivered} block(s) unroutable"
        );
        // A retransmission round: detection latency plus bounded
        // exponential backoff before the re-sweep.
        hc.counters_mut().retries += 1;
        hc.charge_raw_us(f.config.detect_latency_us());
        hc.charge_raw_us(f.config.backoff_us * f64::from(1u32 << (pass - 1).min(20)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn machine(dim: u32) -> Hypercube {
        Hypercube::new(dim, CostModel::unit())
    }

    #[test]
    fn empty_routing_is_free() {
        let mut hc = machine(4);
        let out: Vec<Vec<Block<u32>>> = (0..hc.p()).map(|_| Vec::new()).collect();
        let arrived = route_blocks(&mut hc, out);
        assert!(arrived.iter().all(Vec::is_empty));
        assert_eq!(hc.elapsed_us(), 0.0, "no traffic, no charge");
        assert_eq!(hc.counters().message_steps, 0);
    }

    #[test]
    fn local_block_is_not_charged() {
        let mut hc = machine(3);
        let mut out: Vec<Vec<_>> = (0..hc.p()).map(|_| Vec::new()).collect();
        out[5].push(Block::new(5, 0, vec![1.0f64, 2.0]));
        let arrived = route_blocks(&mut hc, out);
        assert_eq!(arrived[5].len(), 1);
        assert_eq!(arrived[5][0].data, vec![1.0, 2.0]);
        assert_eq!(hc.counters().message_steps, 0);
    }

    #[test]
    fn single_block_crosses_hamming_distance_steps() {
        let mut hc = machine(4);
        let mut out: Vec<Vec<_>> = (0..hc.p()).map(|_| Vec::new()).collect();
        // 0b0000 -> 0b1011: distance 3, so 3 charged supersteps.
        out[0b0000].push(Block::new(0b1011, 7, vec![42u32; 10]));
        let arrived = route_blocks(&mut hc, out);
        assert_eq!(arrived[0b1011].len(), 1);
        assert_eq!(arrived[0b1011][0].data, vec![42u32; 10]);
        assert_eq!(hc.counters().message_steps, 3);
        // Each step carries the full 10 elements on the critical channel.
        assert_eq!(hc.elapsed_us(), 3.0 * (1.0 + 10.0));
    }

    #[test]
    fn all_to_one_concentrates_and_sorts_by_tag() {
        let mut hc = machine(3);
        let p = hc.p();
        let out: Vec<Vec<Block<usize>>> =
            (0..p).map(|n| vec![Block::new(0, (p - n) as u64, vec![n])]).collect();
        let arrived = route_blocks(&mut hc, out);
        assert_eq!(arrived[0].len(), p);
        let tags: Vec<u64> = arrived[0].iter().map(|b| b.tag).collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_eq!(tags, sorted, "arrivals sorted by tag");
        // Everyone except node 0 posted one block.
        let values: Vec<usize> = arrived[0].iter().map(|b| b.data[0]).collect();
        assert_eq!(values, (0..p).rev().collect::<Vec<_>>());
    }

    #[test]
    fn permutation_routing_touches_each_dimension_once() {
        // Bit-complement permutation: node n sends to !n. Every block must
        // cross every dimension, but blocking keeps it to d supersteps.
        let mut hc = machine(5);
        let p = hc.p();
        let mask = p - 1;
        let out: Vec<Vec<Block<usize>>> =
            (0..p).map(|n| vec![Block::new(n ^ mask, n as u64, vec![n; 4])]).collect();
        let arrived = route_blocks(&mut hc, out);
        for n in 0..p {
            assert_eq!(arrived[n].len(), 1);
            assert_eq!(arrived[n][0].data, vec![n ^ mask; 4]);
        }
        assert_eq!(hc.counters().message_steps, 5, "exactly d supersteps");
        // Each node forwards exactly its one 4-element block per step.
        assert_eq!(hc.elapsed_us(), 5.0 * (1.0 + 4.0));
    }

    #[test]
    fn congestion_shows_up_as_channel_load() {
        // All nodes send 8 elements to node 0: the last dimension's channel
        // into 0 carries half the machine's data in one superstep under
        // dimension-ordered routing... actually dimension 0 concentrates
        // first; check max_channel_load grows beyond a single block.
        let mut hc = machine(4);
        let p = hc.p();
        let out: Vec<Vec<Block<u8>>> = (0..p)
            .map(|n| if n == 0 { vec![] } else { vec![Block::new(0, n as u64, vec![0u8; 8])] })
            .collect();
        route_blocks(&mut hc, out);
        assert!(
            hc.counters().max_channel_load >= 8 * 8 / 2,
            "tree concentration loads late channels"
        );
    }

    #[test]
    fn resilient_route_with_empty_plan_matches_plain_cost() {
        use crate::fault::{FaultPlan, ResilientConfig};
        let mk_out = |hc: &Hypercube| -> Vec<Vec<Block<u32>>> {
            let p = hc.p();
            (0..p).map(|n| vec![Block::new((n * 5 + 3) % p, n as u64, vec![n as u32; 6])]).collect()
        };
        let mut plain = machine(4);
        let out = mk_out(&plain);
        let plain_arr = route_blocks(&mut plain, out);
        let mut resil = machine(4);
        resil.install_faults(FaultPlan::none(3), ResilientConfig::default());
        let out = mk_out(&resil);
        let resil_arr = route_blocks(&mut resil, out);
        assert_eq!(plain_arr, resil_arr, "identical delivery");
        assert_eq!(plain.elapsed_us(), resil.elapsed_us(), "identical modeled cost");
        assert_eq!(plain.counters(), resil.counters());
    }

    #[test]
    fn dropped_blocks_really_retry_and_still_deliver() {
        use crate::fault::{FaultPlan, ResilientConfig};
        let mut hc = machine(3);
        hc.install_faults(
            FaultPlan::none(11).with_drops(0.6, 0, u64::MAX),
            ResilientConfig::default(),
        );
        let p = hc.p();
        let out: Vec<Vec<Block<usize>>> =
            (0..p).map(|n| vec![Block::new(p - 1 - n, n as u64, vec![n; 4])]).collect();
        let arrived = route_blocks(&mut hc, out);
        for n in 0..p {
            assert_eq!(arrived[n].len(), 1, "node {n}");
            assert_eq!(arrived[n][0].data, vec![p - 1 - n; 4]);
        }
        assert!(hc.counters().transient_drops > 0, "plan actually fired");
        assert!(hc.counters().retries > 0, "recovery actually retried");
    }

    #[test]
    fn dead_link_blocks_really_detour_and_still_deliver() {
        use crate::fault::{FaultPlan, ResilientConfig};
        let mut hc = machine(3);
        // Kill the dim-0 link 0-1 from the start; 0 -> 1 must detour.
        hc.install_faults(FaultPlan::none(1).with_link_fault(0, 1, 0), ResilientConfig::default());
        let mut out: Vec<Vec<_>> = (0..hc.p()).map(|_| Vec::new()).collect();
        out[0].push(Block::new(1, 0, vec![7u8; 3]));
        let arrived = route_blocks(&mut hc, out);
        assert_eq!(arrived[1].len(), 1);
        assert_eq!(arrived[1][0].data, vec![7u8; 3]);
        assert!(hc.counters().reroutes > 0, "detour actually taken");
        assert!(hc.counters().detour_hops > 0);
        // Direct route is 1 hop; the detour path is longer.
        assert!(hc.counters().message_steps > 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        let mut hc = machine(2);
        let mut out: Vec<Vec<_>> = (0..hc.p()).map(|_| Vec::new()).collect();
        out[0].push(Block::new(99, 0, vec![1u8]));
        let _ = route_blocks(&mut hc, out);
    }
}
