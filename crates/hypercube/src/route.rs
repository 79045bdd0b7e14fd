//! The message plane and blocked dimension-ordered (e-cube) routing.
//!
//! Every irregular data movement in the library (embedding changes,
//! transposes, extract/insert traffic, the naive element router) posts
//! its messages into one [`Traffic`]: each payload is appended to a
//! single arena and described by a header `(at, dst, tag, range)`. The
//! routers move headers, never payloads, and finish by sorting the
//! headers by `(dst, tag)` into a per-node inbox index. A move that
//! builds each node's chunk tags every message with the destination slot
//! of its first element and reads the result with one
//! [`Traffic::assemble`]; request traffic that is answered rather than
//! stored reads [`Traffic::inbox`].
//!
//! [`route_blocks`] is the blocked router: it delivers the posted blocks
//! in `d` store-and-forward supersteps, resolving dimension 0 first,
//! then 1, and so on. In each superstep a node bundles everything it
//! holds that still differs from its destination in the current
//! dimension into **one** message to the corresponding neighbour, so the
//! start-up cost is at most `d * alpha` regardless of how many blocks
//! are in flight — this blocking is precisely what the paper's
//! primitives buy over the naive element-per-message router (see
//! [`crate::router`] for that baseline). [`charge_blocks`] runs the same
//! sweeps over payload-free blocks, for a move whose result the caller
//! already holds.
//!
//! Delivery is deterministic: arrivals at each node are ordered by the
//! caller-supplied `tag` (unique per destination), so a chunk assembles
//! in slot order whatever the routing or posting order.

use crate::fault::MAX_RETRIES;
use crate::machine::{FaultCtx, Hypercube};
use crate::slab::NodeSlab;
use crate::topology::{Cube, NodeId};

/// One posted message: the node holding it now, its destination, its
/// arrival key, and its payload's range in the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub(crate) at: NodeId,
    pub(crate) dst: NodeId,
    tag: u64,
    start: usize,
    len: usize,
    /// Took a detour this pass; rests until the next pass.
    parked: bool,
}

/// The machine's message plane: every posted payload in one arena, one
/// header per message.
///
/// Post with [`Traffic::post`], route with [`route_blocks`] or
/// [`crate::router::route_elements`], then read every node's chunk with
/// [`Traffic::assemble`] or each node's arrivals, ordered by tag, with
/// [`Traffic::inbox`].
#[derive(Debug, Clone)]
pub struct Traffic<T> {
    p: usize,
    arena: Vec<T>,
    pub(crate) heads: Vec<Header>,
    /// After delivery: `p + 1` offsets into `heads`, which are then
    /// sorted by `(dst, tag)`; node `n`'s inbox is
    /// `heads[inbox[n]..inbox[n + 1]]`. Empty until delivered.
    inbox: Vec<usize>,
}

impl<T> Traffic<T> {
    /// An empty message plane for a `p`-node machine.
    #[must_use]
    pub fn new(p: usize) -> Self {
        Traffic { p, arena: Vec::new(), heads: Vec::new(), inbox: Vec::new() }
    }

    /// Post `payload` from node `src` to node `dst`. `tag` orders
    /// arrivals at `dst` and must be unique per destination. For traffic
    /// read with [`Traffic::assemble`] it is the slot, in `dst`'s chunk,
    /// of the payload's first element. A message posted to its own node
    /// never moves, and [`route_blocks`] charges nothing for it.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is out of range.
    pub fn post(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: impl IntoIterator<Item = T>,
    ) {
        assert!(src < self.p, "source {src} out of range");
        assert!(dst < self.p, "destination {dst} out of range");
        let start = self.arena.len();
        self.arena.extend(payload);
        let len = self.arena.len() - start;
        self.heads.push(Header { at: src, dst, tag, start, len, parked: false });
        self.inbox.clear();
    }

    /// Number of nodes the traffic is addressed over.
    #[must_use]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Node `node`'s arrivals as `(tag, payload)`, in ascending tag order.
    ///
    /// # Panics
    /// Panics if the traffic has not been routed since the last post.
    pub fn inbox(&self, node: NodeId) -> impl ExactSizeIterator<Item = (u64, &[T])> + '_ {
        assert!(!self.inbox.is_empty(), "traffic read before it was routed");
        self.heads[self.inbox[node]..self.inbox[node + 1]]
            .iter()
            .map(|h| (h.tag, &self.arena[h.start..h.start + h.len]))
    }

    /// Every node's arrivals laid end to end in tag order: the chunks of
    /// a move whose tags are destination slots (see [`Traffic::post`]).
    ///
    /// # Panics
    /// Panics if the traffic has not been routed since the last post, or
    /// if some node's arrivals do not tile its chunk from slot 0 (a tag
    /// other than the count of elements before it is a gap or an
    /// overlap).
    #[must_use]
    pub fn assemble(&self) -> NodeSlab<T>
    where
        T: Clone,
    {
        assert!(!self.inbox.is_empty(), "traffic read before it was routed");
        NodeSlab::build(self.p, self.arena.len(), |node, buf| {
            let start = buf.len();
            for h in &self.heads[self.inbox[node]..self.inbox[node + 1]] {
                let slot = (buf.len() - start) as u64;
                assert_eq!(h.tag, slot, "arrivals at node {node} do not tile its chunk");
                buf.extend_from_slice(&self.arena[h.start..h.start + h.len]);
            }
        })
    }

    /// Sort the delivered headers by `(dst, tag)` and index them per node.
    pub(crate) fn deliver(&mut self) {
        debug_assert!(self.heads.iter().all(|h| h.at == h.dst), "all messages delivered");
        self.heads.sort_by_key(|h| (h.dst, h.tag));
        self.inbox.clear();
        self.inbox.resize(self.p + 1, 0);
        for h in &self.heads {
            self.inbox[h.dst + 1] += 1;
        }
        for n in 0..self.p {
            self.inbox[n + 1] += self.inbox[n];
        }
    }
}

/// Deliver every posted block to its destination via dimension-ordered
/// store-and-forward routing, charging the machine one blocked message
/// superstep per cube dimension that carries any traffic.
///
/// When fault state is installed on the machine the same sweep consults
/// its one fault context (plan and degradation host map): transiently
/// dropped blocks genuinely stay at the sender and retransmit on a later
/// pass (with backoff), traffic facing a permanently dead link genuinely
/// detours through a healthy perpendicular dimension, and the e-cube
/// sweep repeats until every block is home — so delivery under any recoverable plan is
/// bit-identical to the fault-free run, at a higher modeled cost.
///
/// # Panics
/// Panics if `traffic` was posted for a different machine size, or if
/// the installed fault plan leaves some block with no usable route.
pub fn route_blocks<T>(hc: &mut Hypercube, traffic: &mut Traffic<T>) {
    assert_eq!(traffic.p, hc.p(), "traffic posted for a {}-node machine", traffic.p);
    sweeps(hc, &mut traffic.heads);
    traffic.deliver();
}

/// Charge what [`route_blocks`] charges for `(src, dst, len)` blocks,
/// moving no payload: the same sweeps, drops, retries, detours and
/// degraded hosts. An empty block can be dropped, as an empty post can.
///
/// # Panics
/// As [`route_blocks`], and on a node out of range.
pub fn charge_blocks(hc: &mut Hypercube, moves: impl IntoIterator<Item = (NodeId, NodeId, usize)>) {
    let p = hc.p();
    let mut heads: Vec<Header> = moves
        .into_iter()
        .map(|(src, dst, len)| {
            assert!(src < p && dst < p, "block {src} -> {dst} out of range");
            Header { at: src, dst, tag: 0, start: 0, len, parked: false }
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

    /// Every node's inbox as owned `(tag, payload)` pairs.
    fn inboxes<T: Clone>(traffic: &Traffic<T>) -> Vec<Vec<(u64, Vec<T>)>> {
        (0..traffic.p()).map(|n| traffic.inbox(n).map(|(t, d)| (t, d.to_vec())).collect()).collect()
    }

    #[test]
    fn empty_routing_is_free() {
        let mut hc = machine(4);
        let mut traffic: Traffic<u32> = Traffic::new(hc.p());
        route_blocks(&mut hc, &mut traffic);
        assert!((0..hc.p()).all(|n| traffic.inbox(n).len() == 0));
        assert_eq!(hc.elapsed_us(), 0.0, "no traffic, no charge");
        assert_eq!(hc.counters().message_steps, 0);
    }

    #[test]
    fn local_block_is_not_charged() {
        let mut hc = machine(3);
        let mut traffic = Traffic::new(hc.p());
        traffic.post(5, 5, 0, [1.0f64, 2.0]);
        route_blocks(&mut hc, &mut traffic);
        assert_eq!(inboxes(&traffic)[5], vec![(0, vec![1.0, 2.0])]);
        assert_eq!(hc.counters().message_steps, 0);
    }

    #[test]
    fn single_block_crosses_hamming_distance_steps() {
        let mut hc = machine(4);
        let mut traffic = Traffic::new(hc.p());
        // 0b0000 -> 0b1011: distance 3, so 3 charged supersteps.
        traffic.post(0b0000, 0b1011, 7, [42u32; 10]);
        route_blocks(&mut hc, &mut traffic);
        assert_eq!(inboxes(&traffic)[0b1011], vec![(7, vec![42u32; 10])]);
        assert_eq!(hc.counters().message_steps, 3);
        // Each step carries the full 10 elements on the critical channel.
        assert_eq!(hc.elapsed_us(), 3.0 * (1.0 + 10.0));
    }

    #[test]
    fn all_to_one_concentrates_and_sorts_by_tag() {
        let mut hc = machine(3);
        let p = hc.p();
        let mut traffic = Traffic::new(p);
        for n in 0..p {
            traffic.post(n, 0, (p - n) as u64, [n]);
        }
        route_blocks(&mut hc, &mut traffic);
        let tags: Vec<u64> = traffic.inbox(0).map(|(t, _)| t).collect();
        assert_eq!(tags, (1..=p as u64).collect::<Vec<_>>(), "arrivals sorted by tag");
        let values: Vec<usize> = traffic.inbox(0).map(|(_, d)| d[0]).collect();
        assert_eq!(values, (0..p).rev().collect::<Vec<_>>());
    }

    #[test]
    fn permutation_routing_touches_each_dimension_once() {
        // Bit-complement permutation: node n sends to !n. Every block must
        // cross every dimension, but blocking keeps it to d supersteps.
        let mut hc = machine(5);
        let p = hc.p();
        let mask = p - 1;
        let mut traffic = Traffic::new(p);
        for n in 0..p {
            traffic.post(n, n ^ mask, n as u64, vec![n; 4]);
        }
        route_blocks(&mut hc, &mut traffic);
        for (n, inbox) in inboxes(&traffic).into_iter().enumerate() {
            assert_eq!(inbox, vec![((n ^ mask) as u64, vec![n ^ mask; 4])]);
        }
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
        let p = hc.p();
        let mut traffic = Traffic::new(p);
        for n in 1..p {
            traffic.post(n, 0, n as u64, [0u8; 8]);
        }
        route_blocks(&mut hc, &mut traffic);
        assert!(
            hc.counters().max_channel_load >= 8 * 8 / 2,
            "tree concentration loads late channels"
        );
    }

    #[test]
    fn resilient_route_with_empty_plan_matches_plain_cost() {
        let mk = |p: usize| {
            let mut traffic = Traffic::new(p);
            for n in 0..p {
                traffic.post(n, (n * 5 + 3) % p, n as u64, [n as u32; 6]);
            }
            traffic
        };
        let mut plain = machine(4);
        let mut plain_traffic = mk(plain.p());
        route_blocks(&mut plain, &mut plain_traffic);
        let mut resil = machine(4);
        resil.install_faults(FaultPlan::none(3));
        let mut resil_traffic = mk(resil.p());
        route_blocks(&mut resil, &mut resil_traffic);
        assert_eq!(inboxes(&plain_traffic), inboxes(&resil_traffic), "identical delivery");
        assert_eq!(plain.elapsed_us(), resil.elapsed_us(), "identical modeled cost");
        assert_eq!(plain.counters(), resil.counters());
    }

    #[test]
    fn dropped_blocks_really_retry_and_still_deliver() {
        let mut hc = machine(3);
        hc.install_faults(FaultPlan::none(11).with_drops(0.6, 0, u64::MAX));
        let p = hc.p();
        let mut traffic = Traffic::new(p);
        for n in 0..p {
            traffic.post(n, p - 1 - n, n as u64, [n; 4]);
        }
        route_blocks(&mut hc, &mut traffic);
        for (n, inbox) in inboxes(&traffic).into_iter().enumerate() {
            assert_eq!(inbox, vec![((p - 1 - n) as u64, vec![p - 1 - n; 4])], "node {n}");
        }
        assert!(hc.counters().transient_drops > 0, "plan actually fired");
        assert!(hc.counters().retries > 0, "recovery actually retried");
    }

    #[test]
    fn dead_link_blocks_really_detour_and_still_deliver() {
        let mut hc = machine(3);
        // Kill the dim-0 link 0-1 from the start; 0 -> 1 must detour.
        hc.install_faults(FaultPlan::none(1).with_link_fault(0, 1, 0));
        let mut traffic = Traffic::new(hc.p());
        traffic.post(0, 1, 0, [7u8; 3]);
        route_blocks(&mut hc, &mut traffic);
        assert_eq!(inboxes(&traffic)[1], vec![(0, vec![7u8; 3])]);
        assert!(hc.counters().reroutes > 0, "detour actually taken");
        assert!(hc.counters().detour_hops > 0);
        // Direct route is 1 hop; the detour path is longer.
        assert!(hc.counters().message_steps > 1);
    }

    /// Route `posts` as `(src, dst, tag, payload)` on a 3-cube and
    /// assemble the chunks.
    fn assembled(posts: &[(NodeId, NodeId, u64, &[u32])]) -> NodeSlab<u32> {
        let mut hc = machine(3);
        let mut traffic = Traffic::new(hc.p());
        for &(src, dst, tag, payload) in posts {
            traffic.post(src, dst, tag, payload.iter().copied());
        }
        route_blocks(&mut hc, &mut traffic);
        traffic.assemble()
    }

    #[test]
    fn assemble_tiles_arrivals_in_tag_order() {
        let posts: [(NodeId, NodeId, u64, &[u32]); 4] =
            [(0, 6, 0, &[10, 11]), (7, 6, 2, &[12, 13, 14]), (6, 6, 5, &[15]), (2, 1, 0, &[20])];
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            let slab = assembled(&order.map(|k| posts[k]));
            assert_eq!(slab[6], [10, 11, 12, 13, 14, 15], "posting order {order:?}");
            assert_eq!(slab[1], [20]);
            assert_eq!(slab.total_len(), 7, "no other node receives anything");
        }
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn assemble_rejects_a_gap() {
        let _ = assembled(&[(0, 6, 0, &[1, 2]), (3, 6, 3, &[4])]);
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn assemble_rejects_an_overlap() {
        let _ = assembled(&[(0, 6, 0, &[1, 2]), (3, 6, 1, &[3])]);
    }

    #[test]
    fn self_posted_message_is_free_even_under_faults() {
        let mut hc = machine(3);
        hc.install_faults(FaultPlan::none(11).with_drops(1.0, 0, u64::MAX));
        let mut traffic = Traffic::new(hc.p());
        traffic.post(5, 5, 0, [7u8; 4]);
        route_blocks(&mut hc, &mut traffic);
        assert_eq!(traffic.assemble()[5], [7u8; 4]);
        assert_eq!(hc.ticks(), crate::cost::Ticks::default(), "no tick");
        assert_eq!(*hc.counters(), crate::counters::Counters::default(), "no counter");
    }

    /// The payload-free sweep charges what routing the payloads charges:
    /// fault-free, under drops, around a dead link and on a degraded
    /// machine, with an empty and a self-addressed block among the moves.
    #[test]
    fn charge_blocks_charges_what_route_blocks_charges() {
        let moves: Vec<(NodeId, NodeId, usize)> =
            vec![(0, 7, 3), (1, 6, 0), (5, 5, 2), (2, 4, 1), (6, 1, 4), (3, 0, 2)];
        let machines: [fn() -> Hypercube; 4] = [
            || machine(3),
            || {
                let mut hc = machine(3);
                hc.install_faults(FaultPlan::none(5).with_drops(0.5, 0, u64::MAX));
                hc
            },
            || {
                let mut hc = machine(3);
                hc.install_faults(FaultPlan::none(2).with_link_fault(0, 1, 0));
                hc
            },
            || {
                let mut hc = machine(3);
                hc.degrade(&[7], &[0; 8]);
                hc
            },
        ];
        for make in machines {
            let (mut routed, mut charged) = (make(), make());
            let mut traffic = Traffic::new(8);
            for &(src, dst, len) in &moves {
                traffic.post(src, dst, 0, vec![1u8; len]);
            }
            route_blocks(&mut routed, &mut traffic);
            charge_blocks(&mut charged, moves.iter().copied());
            assert_eq!(charged.ticks(), routed.ticks());
            assert_eq!(charged.counters(), routed.counters());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        let mut traffic = Traffic::new(4);
        traffic.post(0, 99, 0, [1u8]);
    }

    #[test]
    #[should_panic(expected = "before it was routed")]
    fn unrouted_inbox_panics() {
        let mut traffic = Traffic::new(4);
        traffic.post(0, 1, 0, [1u8]);
        let _ = traffic.inbox(1);
    }
}
