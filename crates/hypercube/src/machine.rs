//! The simulated hypercube multiprocessor.
//!
//! [`Hypercube`] bundles the cube topology, the cost model, a simulated
//! clock and event counters. It does **not** own application data:
//! distributed data lives in caller-held per-processor buffers — a flat
//! [`crate::slab::NodeSlab`] indexed by [`NodeId`]. The collectives in
//! [`crate::collective`] transform those buffers while charging the
//! machine for the time the operation would take; an irregular move
//! places its result on the host and charges the machine from its
//! message list ([`crate::route::charge_blocks`],
//! [`crate::router::route_elements`]).
//!
//! The accounting discipline is BSP-like and matches the analyses in the
//! Johnsson/Ho reports: execution is a sequence of *supersteps*; a
//! communication superstep in which every node exchanges at most `n`
//! elements with a neighbour costs `alpha + n * beta`; a local compute
//! superstep costs `gamma * f` where `f` is the critical-path (maximum
//! per-processor) operation count. Results are computed on the host,
//! bit-exact and testable against serial oracles; only the *clock* is
//! modelled.
//!
//! The clock is not a running sum: the machine counts each cost term as
//! an integer ([`Hypercube::ticks`]) and [`Hypercube::elapsed_us`]
//! prices the counts on read, so the clock's bits never depend on how
//! charges were grouped or ordered.
//!
//! Fault state is one context on the machine: the installed
//! [`FaultPlan`] and the logical→physical host map that
//! [`Hypercube::degrade`] sets after node failures. The two are set
//! independently, in either order, and both the charging seam
//! ([`Hypercube::charge_exchange_step`]) and the blocked router
//! ([`crate::route::charge_blocks`]) read the context in place.

use crate::cost::{allport_schedule, Algo, Collective, CostModel, Ticks};
use crate::counters::Counters;
use crate::fault::{FaultPlan, MAX_RETRIES};
use crate::topology::{Cube, NodeId};

/// The machine's one fault context: the installed plan and the
/// logical→physical host map of graceful degradation after node
/// failures. [`Hypercube::install_faults`] replaces the plan and
/// [`Hypercube::degrade`] the host map; each leaves the other alone.
#[derive(Debug, Clone)]
pub(crate) struct FaultCtx {
    pub(crate) plan: FaultPlan,
    /// `host_map[logical] = physical` — which healthy node actually
    /// hosts each logical node's block after degradation.
    pub(crate) host_map: Vec<NodeId>,
    /// Max logical nodes per physical host (1 = no degradation); local
    /// compute supersteps serialize by this factor.
    load_factor: usize,
}

impl FaultCtx {
    /// A non-empty plan, or degradation doubling up hosts.
    fn is_live(&self) -> bool {
        !self.plan.is_empty() || self.load_factor > 1
    }
}

/// A simulated Boolean-cube multiprocessor: topology + cost accounting.
#[derive(Debug, Clone)]
pub struct Hypercube {
    cube: Cube,
    cost: CostModel,
    counters: Counters,
    /// The three [`Ticks`] terms [`Counters`] has no field for
    /// (`elements`, `injections`, `backoff`); the others stay zero.
    extra: Ticks,
    pub(crate) fault: Option<Box<FaultCtx>>,
}

impl Hypercube {
    /// A machine with `2^dim` processors under the given cost model.
    #[must_use]
    pub fn new(dim: u32, cost: CostModel) -> Self {
        Hypercube {
            cube: Cube::new(dim),
            cost,
            counters: Counters::default(),
            extra: Ticks::default(),
            fault: None,
        }
    }

    /// A CM-2-flavoured machine (the paper's target) with `2^dim` nodes.
    #[must_use]
    pub fn cm2(dim: u32) -> Self {
        Self::new(dim, CostModel::cm2())
    }

    /// The cube topology.
    #[inline]
    #[must_use]
    pub fn cube(&self) -> Cube {
        self.cube
    }

    /// Number of processors `p`.
    #[inline]
    #[must_use]
    pub fn p(&self) -> usize {
        self.cube.nodes()
    }

    /// Cube dimension `d = lg p`.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> u32 {
        self.cube.dim()
    }

    /// The cost model in force.
    #[inline]
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Whether the machine currently has live fault state: a non-empty
    /// fault plan, or degradation remaps doubling up hosts. The
    /// collectives fall back to single-port schedules (whose exchange
    /// steps carry the detour/retry/remap machinery) whenever this is
    /// true; an *empty* installed plan stays on the fast paths, keeping
    /// the zero-overhead invariant.
    #[inline]
    #[must_use]
    pub fn live_faults(&self) -> bool {
        self.fault.as_deref().is_some_and(FaultCtx::is_live)
    }

    /// Choose the schedule for one collective call over `k` dimensions
    /// with critical-path segment length `max_len`: [`CostModel::choose`]
    /// under the machine's cost model and live fault state.
    #[must_use]
    pub fn choose_algo(&self, kind: Collective, k: usize, max_len: usize) -> Algo {
        self.cost.choose(kind, k, max_len, self.live_faults())
    }

    /// Charge the all-port schedule for one collective: `steps`
    /// concurrent supersteps of one `per_port`-element message plus the
    /// per-step critical-path combines. Each superstep advances the
    /// fault clock like any other message step (all-port schedules only
    /// run when [`Hypercube::live_faults`] is false, so there is no
    /// detour machinery to consult). `total_elements` is the
    /// machine-wide element count for the whole collective, booked on
    /// the first step.
    pub fn charge_allport(
        &mut self,
        kind: Collective,
        k: usize,
        max_len: usize,
        chunks: usize,
        total_elements: u64,
    ) {
        let s = allport_schedule(kind, k, max_len, chunks);
        for step in 0..s.steps {
            self.charge_message_step(s.per_port, if step == 0 { total_elements } else { 0 });
            self.counters.allport_steps += 1;
            if s.per_step_flops > 0 {
                self.charge_flops(s.per_step_flops);
            }
        }
    }

    /// Simulated time elapsed since construction or the last
    /// [`Hypercube::reset`], in microseconds: [`Hypercube::ticks`]
    /// priced by the cost model.
    #[inline]
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        self.cost.price(self.ticks())
    }

    /// The cost-term counts charged since construction or the last
    /// [`Hypercube::reset`]: four are [`Counters`] fields
    /// (`message_steps` counts the start-ups), the machine keeps the
    /// other three.
    #[inline]
    #[must_use]
    pub fn ticks(&self) -> Ticks {
        let c = &self.counters;
        let (flops, moves, router_cycles) = (c.flops, c.local_moves, c.router_cycles);
        Ticks { startups: c.message_steps, flops, moves, router_cycles, ..self.extra }
    }

    /// Event counters accumulated so far.
    #[inline]
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable counters for in-crate communication code that tallies
    /// fault events it simulates itself (e.g. the resilient router).
    #[inline]
    pub(crate) fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Zero the clock and counters (topology and cost model stay, as
    /// does any installed fault state).
    pub fn reset(&mut self) {
        self.counters.reset();
        self.extra = Ticks::default();
    }

    // ----- fault injection & graceful degradation ----------------------

    /// Install a fault plan; the machine recovers from it with the fixed
    /// policy in [`crate::fault`]. Until this is called (or after
    /// [`Hypercube::clear_faults`]) the machine takes the plain
    /// communication paths with zero overhead. Only the plan is
    /// replaced: a host map set by [`Hypercube::degrade`] stays.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.fault_ctx().plan = plan;
    }

    /// Remove any installed fault state (host map included).
    pub fn clear_faults(&mut self) {
        self.fault = None;
    }

    /// The fault context, installed with an empty plan and the identity
    /// host map if there is none yet.
    fn fault_ctx(&mut self) -> &mut FaultCtx {
        let p = self.p();
        self.fault.get_or_insert_with(|| {
            Box::new(FaultCtx {
                plan: FaultPlan::none(0),
                host_map: (0..p).collect(),
                load_factor: 1,
            })
        })
    }

    /// The installed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref().map(|ctx| &ctx.plan)
    }

    /// The current fault clock: message supersteps executed so far.
    /// [`FaultPlan`] activation schedules are expressed on this clock.
    #[inline]
    #[must_use]
    pub fn fault_step(&self) -> u64 {
        self.counters.message_steps
    }

    /// Physical host of `logical` under the degradation host map
    /// (identity on a machine that was never degraded).
    #[must_use]
    pub fn host_of(&self, logical: NodeId) -> NodeId {
        match &self.fault {
            Some(ctx) => ctx.host_map[logical],
            None => logical,
        }
    }

    /// Max logical nodes hosted by one physical node (1 = healthy).
    #[must_use]
    pub fn load_factor(&self) -> usize {
        self.fault.as_deref().map_or(1, |ctx| ctx.load_factor)
    }

    /// Graceful degradation after node failures: host every node in
    /// `dead` on a healthy cube neighbour, which from then on simulates
    /// both logical nodes. The logical cube the primitives address never
    /// changes, only this logical→physical host map does, so every
    /// program keeps producing bit-identical results at reduced capacity:
    /// traffic between co-hosted logical nodes becomes local, and local
    /// compute supersteps serialize by the resulting load factor.
    ///
    /// Dead nodes are taken in ascending order (duplicates ignored); each
    /// goes to the healthy neighbour hosting the fewest logical nodes so
    /// far, the lowest cube dimension on ties — a deterministic embedding.
    ///
    /// `resident_elements[n]` is the number of elements resident on
    /// logical node `n` across all live distributed objects: the volume
    /// that moves to the host. The migrations travel disjoint neighbour
    /// links, so they are charged as one blocked message superstep of
    /// the largest block and counted under `migrated_elements`; each
    /// dead node counts one `node_remaps`. Installs an empty fault plan
    /// if none is present, and leaves an installed plan in force.
    ///
    /// # Panics
    /// Panics if `resident_elements.len() != p`, a dead node is out of
    /// range, every node is dead, a dead node has no healthy neighbour
    /// (single-hop concentration cannot recover it), or the machine is
    /// already degraded.
    pub fn degrade(&mut self, dead: &[NodeId], resident_elements: &[usize]) {
        let (cube, p) = (self.cube, self.p());
        assert_eq!(resident_elements.len(), p, "one resident size per node expected");
        let mut is_dead = vec![false; p];
        for &n in dead {
            assert!(cube.contains(n), "dead node {n} out of range");
            is_dead[n] = true;
        }
        let mut dead = dead.to_vec();
        dead.sort_unstable();
        dead.dedup();
        if dead.is_empty() {
            return;
        }
        assert!(dead.len() < p, "every node is dead");
        assert_eq!(self.load_factor(), 1, "machine is already degraded");

        let mut mult: Vec<usize> = is_dead.iter().map(|&d| usize::from(!d)).collect();
        let hosts: Vec<NodeId> = dead
            .iter()
            .map(|&n| {
                let host = cube
                    .iter_dims()
                    .map(|d| cube.neighbor(n, d))
                    .filter(|&nb| !is_dead[nb])
                    .min_by_key(|&nb| mult[nb])
                    .unwrap_or_else(|| panic!("dead node {n} has no healthy neighbour"));
                mult[host] += 1;
                host
            })
            .collect();

        let max_block = dead.iter().map(|&n| resident_elements[n]).max().unwrap_or(0);
        let total: u64 = dead.iter().map(|&n| resident_elements[n] as u64).sum();
        if total > 0 {
            // One hop each, disjoint links, all in parallel.
            self.charge_message_step(max_block, total);
        }
        self.counters.migrated_elements += total;
        self.counters.node_remaps += dead.len() as u64;

        let ctx = self.fault_ctx();
        for (&n, host) in dead.iter().zip(hosts) {
            ctx.host_map[n] = host;
        }
        ctx.load_factor = mult.into_iter().max().unwrap_or(1);
    }

    // ----- charging primitives (called by communication/compute code) ---

    /// Charge one blocked message superstep: every active node exchanges
    /// at most `max_per_channel` elements with one neighbour.
    /// `total_elements` is the machine-wide element count, for counters.
    pub fn charge_message_step(&mut self, max_per_channel: usize, total_elements: u64) {
        self.extra.elements += max_per_channel as u64;
        self.counters.message_steps += 1;
        self.counters.elements_transferred += total_elements;
        self.counters.max_channel_load = self.counters.max_channel_load.max(max_per_channel as u64);
    }

    /// Charge one blocked message superstep whose `(src, dst)` transfers
    /// are described lazily by `pairs` — the fault-aware variant of
    /// [`Hypercube::charge_message_step`] used by every collective.
    ///
    /// `pairs` is evaluated only while [`Hypercube::live_faults`] holds.
    /// Otherwise (no fault state, or an empty plan without remaps) this
    /// is exactly the plain charge: identical clock and counters, and no
    /// host work that grows with `p`. Under live faults:
    ///
    /// * pairs mapped to the same physical host by degradation are
    ///   local copies, not channel traffic;
    /// * traffic over permanently dead links detours around the link
    ///   (two extra hops charged on the critical path, counted under
    ///   `reroutes`/`detour_hops`);
    /// * transient drops are detected by checksum on arrival and
    ///   retransmitted with bounded exponential backoff (counted under
    ///   `transient_drops`/`retries`); links still dropping after
    ///   [`MAX_RETRIES`] rounds escalate to a detour, so the superstep
    ///   always completes.
    ///
    /// All fault decisions are keyed to the fault-clock value at entry,
    /// so a given program and plan replay identically.
    pub fn charge_exchange_step(
        &mut self,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
        max_per_channel: usize,
        total_elements: u64,
    ) {
        let ctx = match self.fault.take() {
            Some(ctx) if ctx.is_live() => ctx,
            idle => {
                self.fault = idle;
                self.charge_message_step(max_per_channel, total_elements);
                return;
            }
        };
        let step = self.counters.message_steps;

        // Physical channels in use after the degradation host map,
        // canonicalized and deduplicated.
        let mut any_pairs = false;
        let mut links: Vec<(NodeId, NodeId)> = pairs
            .into_iter()
            .map(|(a, b)| {
                any_pairs = true;
                let (pa, pb) = (ctx.host_map[a], ctx.host_map[b]);
                (pa.min(pb), pa.max(pb))
            })
            .filter(|&(pa, pb)| pa != pb)
            .collect();
        links.sort_unstable();
        links.dedup();

        if any_pairs && links.is_empty() {
            // Degradation made every transfer intra-host: local copies.
            self.charge_moves(max_per_channel);
            self.fault = Some(ctx);
            return;
        }

        // The superstep itself (this also advances the fault clock).
        self.charge_message_step(max_per_channel, total_elements);

        let n_dead = links.iter().filter(|&&(a, b)| ctx.plan.link_dead(a, b, step)).count();
        if n_dead > 0 {
            self.charge_detour(n_dead as u64, max_per_channel);
        }

        let mut pending: Vec<(NodeId, NodeId)> =
            links.into_iter().filter(|&(a, b)| !ctx.plan.link_dead(a, b, step)).collect();
        let mut attempt = 0u32;
        loop {
            pending.retain(|&(a, b)| ctx.plan.transient_drop(a, b, step, attempt));
            if pending.is_empty() {
                break;
            }
            self.counters.transient_drops += pending.len() as u64;
            if attempt >= MAX_RETRIES {
                // Retries exhausted: route the stuck traffic around.
                self.charge_detour(pending.len() as u64, max_per_channel);
                break;
            }
            self.charge_retry(attempt);
            self.charge_message_step(
                max_per_channel,
                pending.len() as u64 * max_per_channel as u64,
            );
            attempt += 1;
        }

        self.fault = Some(ctx);
    }

    /// Count one retransmission round and charge its bounded
    /// exponential backoff: `2^min(round, 20)` backoff units before
    /// re-sending (round 0 is the first retransmission).
    pub(crate) fn charge_retry(&mut self, round: u32) {
        self.counters.retries += 1;
        self.extra.backoff += 1 << round.min(20);
    }

    /// Charge a two-hop detour for `n_links` channels' payloads.
    fn charge_detour(&mut self, n_links: u64, max_per_channel: usize) {
        self.counters.reroutes += n_links;
        self.counters.detour_hops += 2 * n_links;
        let per_hop = n_links * max_per_channel as u64;
        self.charge_message_step(max_per_channel, per_hop);
        self.charge_message_step(max_per_channel, per_hop);
    }

    /// Charge a local compute superstep of `critical_flops` operations on
    /// the busiest processor. Under graceful degradation a host running
    /// `load_factor` logical nodes serializes their work, so the
    /// critical path scales by that factor.
    pub fn charge_flops(&mut self, critical_flops: usize) {
        self.counters.flops += (critical_flops * self.load_factor()) as u64;
    }

    /// Charge a local data-movement superstep of `critical_moves` element
    /// copies on the busiest processor.
    pub fn charge_moves(&mut self, critical_moves: usize) {
        self.counters.local_moves += critical_moves as u64;
    }

    /// Charge the per-element injection overhead of the general router
    /// (naive baseline): the busiest processor injects
    /// `max_injected_per_node` individually addressed elements.
    pub fn charge_router_injection(&mut self, max_injected_per_node: usize, total_elements: u64) {
        self.extra.injections += max_injected_per_node as u64;
        self.counters.router_elements += total_elements;
    }

    /// Charge `cycles` router petit cycles (naive baseline).
    pub fn charge_router_cycles(&mut self, cycles: u64) {
        self.counters.router_cycles += cycles;
    }

    /// Charge `n` more critical-path elements on the message superstep
    /// just charged, with no start-up and no counter: a payload word
    /// wider than the one element per entry the exchange counted.
    pub fn charge_elements(&mut self, n: usize) {
        self.extra.elements += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_machine_has_zero_clock() {
        let hc = Hypercube::new(5, CostModel::unit());
        assert_eq!(hc.p(), 32);
        assert_eq!(hc.dim(), 5);
        assert_eq!(hc.elapsed_us(), 0.0);
        assert_eq!(*hc.counters(), Counters::default());
    }

    #[test]
    fn message_step_charges_affine_cost() {
        let mut hc = Hypercube::new(3, CostModel::unit());
        hc.charge_message_step(10, 80);
        assert_eq!(hc.elapsed_us(), 11.0); // alpha + 10*beta
        assert_eq!(hc.counters().message_steps, 1);
        assert_eq!(hc.counters().elements_transferred, 80);
        assert_eq!(hc.counters().max_channel_load, 10);
    }

    #[test]
    fn flops_and_moves_accumulate() {
        let mut hc = Hypercube::new(2, CostModel::unit());
        hc.charge_flops(7);
        hc.charge_moves(3);
        assert_eq!(hc.counters().flops, 7);
        assert_eq!(hc.counters().local_moves, 3);
        assert_eq!(hc.elapsed_us(), 7.0); // delta = 0 in unit model
    }

    #[test]
    fn reset_zeroes_clock_and_counters() {
        let mut hc = Hypercube::new(2, CostModel::unit());
        hc.charge_message_step(1, 2);
        hc.reset();
        assert_eq!(hc.elapsed_us(), 0.0);
        assert_eq!(*hc.counters(), Counters::default());
        assert_eq!(hc.p(), 4, "topology survives reset");
    }

    #[test]
    fn exchange_step_without_faults_matches_message_step() {
        let mut plain = Hypercube::new(3, CostModel::unit());
        let mut resil = Hypercube::new(3, CostModel::unit());
        let pairs = [(0usize, 1usize), (2, 3)];
        plain.charge_message_step(6, 12);
        resil.charge_exchange_step(pairs, 6, 12);
        assert_eq!(plain.elapsed_us(), resil.elapsed_us());
        assert_eq!(plain.counters(), resil.counters());
    }

    #[test]
    fn exchange_step_with_empty_plan_is_zero_overhead() {
        use crate::fault::FaultPlan;
        let mut plain = Hypercube::new(3, CostModel::unit());
        let mut resil = Hypercube::new(3, CostModel::unit());
        resil.install_faults(FaultPlan::none(17));
        for i in 0..10usize {
            let pairs = [(i % 8, (i % 8) ^ 1)];
            plain.charge_exchange_step(pairs, 4, 4);
            resil.charge_exchange_step(pairs, 4, 4);
        }
        assert_eq!(plain.elapsed_us(), resil.elapsed_us());
        assert_eq!(plain.counters(), resil.counters());
    }

    /// A pair description that counts how often it is evaluated and
    /// panics when evaluated while `allowed` is false.
    struct Probe<'a> {
        pairs: &'a [(NodeId, NodeId)],
        evals: &'a std::cell::Cell<usize>,
        allowed: bool,
    }

    impl<'a> IntoIterator for Probe<'a> {
        type Item = (NodeId, NodeId);
        type IntoIter = std::iter::Copied<std::slice::Iter<'a, (NodeId, NodeId)>>;

        fn into_iter(self) -> Self::IntoIter {
            assert!(self.allowed, "pair description evaluated without live faults");
            self.evals.set(self.evals.get() + 1);
            self.pairs.iter().copied()
        }
    }

    #[test]
    fn exchange_step_evaluates_pairs_only_under_live_faults() {
        use crate::fault::FaultPlan;
        // One exchange step per dimension of a 3-cube, all pairs active,
        // and one step whose only pair the remap below makes local.
        let mut steps: Vec<Vec<(NodeId, NodeId)>> = (0..3u32)
            .map(|d| (0..8usize).filter(|n| n >> d & 1 == 0).map(|n| (n, n | 1 << d)).collect())
            .collect();
        steps.push(vec![(4, 5)]);
        let setup = |what: &str, hc: &mut Hypercube| match what {
            "no plan" => {}
            "empty plan" => hc.install_faults(FaultPlan::none(5)),
            "drops and a dead link" => hc.install_faults(
                FaultPlan::none(5).with_drops(0.3, 0, u64::MAX).with_link_fault(2, 6, 0),
            ),
            // Node 5 goes to its dim-0 neighbour 4.
            _ => hc.degrade(&[5], &[0; 8]),
        };
        let states = [
            ("no plan", false),
            ("empty plan", false),
            ("drops and a dead link", true),
            ("remap", true),
        ];
        for (what, live) in states {
            let mut lazy = Hypercube::new(3, CostModel::unit());
            let mut eager = Hypercube::new(3, CostModel::unit());
            setup(what, &mut lazy);
            setup(what, &mut eager);
            let evals = std::cell::Cell::new(0);
            for _round in 0..3 {
                for pairs in &steps {
                    lazy.charge_exchange_step(Probe { pairs, evals: &evals, allowed: live }, 4, 16);
                    eager.charge_exchange_step(pairs.iter().copied(), 4, 16);
                }
            }
            let want = if live { 3 * steps.len() } else { 0 };
            assert_eq!(evals.get(), want, "{what}: evaluations");
            assert_eq!(lazy.elapsed_us().to_bits(), eager.elapsed_us().to_bits(), "{what}: clock");
            assert_eq!(lazy.counters(), eager.counters(), "{what}: counters");
            let recovered = lazy.counters().reroutes + lazy.counters().local_moves;
            assert_eq!(recovered > 0, live, "{what}: the fault state took effect");
        }
    }

    #[test]
    fn dead_link_charges_detour_and_counts_reroute() {
        use crate::fault::FaultPlan;
        let mut hc = Hypercube::new(3, CostModel::unit());
        hc.install_faults(FaultPlan::none(1).with_link_fault(0, 1, 0));
        hc.charge_exchange_step([(0, 1)], 5, 5);
        assert_eq!(hc.counters().reroutes, 1);
        assert_eq!(hc.counters().detour_hops, 2);
        // Base superstep + two detour hops, each alpha + 5*beta.
        assert_eq!(hc.elapsed_us(), 3.0 * (1.0 + 5.0));
        assert_eq!(hc.counters().message_steps, 3);
    }

    #[test]
    fn certain_drop_retries_until_escalation() {
        use crate::fault::FaultPlan;
        let mut hc = Hypercube::new(3, CostModel::unit());
        hc.install_faults(FaultPlan::none(1).with_drops(1.0, 0, u64::MAX));
        hc.charge_exchange_step([(0, 1)], 2, 2);
        // rate 1.0 drops every attempt: 4 retries then detour escalation.
        assert_eq!(hc.counters().retries, 4);
        assert_eq!(hc.counters().transient_drops, 5, "initial try + 4 retries all dropped");
        assert_eq!(hc.counters().reroutes, 1, "escalated after retry budget");
        // Base try + 4 retransmissions + 2 detour hops, plus backoff
        // 1 + 2 + 4 + 8 = 15us.
        let msg = 1.0 + 2.0;
        assert_eq!(hc.counters().message_steps, 7);
        assert_eq!(hc.ticks().backoff, 15);
        assert_eq!(hc.elapsed_us(), 7.0 * msg + 15.0);
    }

    /// Every node's physical host.
    fn hosts(hc: &Hypercube) -> Vec<NodeId> {
        (0..hc.p()).map(|n| hc.host_of(n)).collect()
    }

    #[test]
    fn healthy_machine_hosts_every_node_itself() {
        use crate::fault::FaultPlan;
        let mut hc = Hypercube::new(3, CostModel::unit());
        assert_eq!(hc.load_factor(), 1);
        assert_eq!(hosts(&hc), (0..8).collect::<Vec<_>>());
        hc.install_faults(FaultPlan::none(3).with_drops(0.5, 0, u64::MAX));
        assert_eq!(hc.load_factor(), 1, "a plan alone doubles up no host");
        assert_eq!(hosts(&hc), (0..8).collect::<Vec<_>>());
        hc.degrade(&[], &[9; 8]);
        assert_eq!(hosts(&hc), (0..8).collect::<Vec<_>>(), "an empty dead set changes nothing");
        assert_eq!(*hc.counters(), Counters::default());
    }

    #[test]
    fn degrade_makes_traffic_local_and_scales_flops() {
        let mut hc = Hypercube::new(2, CostModel::unit());
        assert_eq!(hc.host_of(3), 3);
        hc.degrade(&[3], &[0; 4]);
        assert!(hc.fault_plan().expect("degrade installs an empty plan").is_empty());
        assert_eq!(hc.host_of(3), 2, "the dim-0 neighbour wins the tie");
        assert_eq!(hc.load_factor(), 2);
        assert_eq!(hc.counters().node_remaps, 1);
        // Nodes 2 and 3 are now co-hosted: a local-move superstep.
        hc.charge_exchange_step([(2, 3)], 4, 4);
        assert_eq!(hc.counters().message_steps, 0);
        assert_eq!(hc.counters().local_moves, 4);
        // Compute serializes 2x on the doubled-up host.
        let before = hc.counters().flops;
        hc.charge_flops(10);
        assert_eq!(hc.counters().flops - before, 20);
    }

    #[test]
    fn degradation_with_empty_node_is_free_traffic() {
        let mut hc = Hypercube::new(2, CostModel::unit());
        // No resident data anywhere: remap alone, no migration charge.
        hc.degrade(&[3], &[0, 0, 0, 0]);
        assert_eq!(hc.counters().migrated_elements, 0);
        assert_eq!(hc.counters().message_steps, 0);
        assert_eq!(hc.counters().node_remaps, 1);
        assert_eq!(hc.host_of(3), 2);
    }

    #[test]
    fn migration_is_one_superstep_of_the_largest_block() {
        let mut hc = Hypercube::new(3, CostModel::unit());
        hc.degrade(&[6, 2], &[1, 1, 5, 1, 1, 1, 7, 1]);
        assert_eq!(hc.counters().message_steps, 1);
        assert_eq!(hc.counters().max_channel_load, 7);
        assert_eq!(hc.counters().elements_transferred, 12);
        assert_eq!(hc.counters().migrated_elements, 12);
        assert_eq!(hc.counters().node_remaps, 2);
        assert_eq!(hc.elapsed_us(), 1.0 + 7.0);
    }

    #[test]
    fn single_dead_node_concentrates_on_a_neighbour() {
        let mut hc = Hypercube::new(4, CostModel::unit());
        hc.degrade(&[6], &[0; 16]);
        let h = hc.host_of(6);
        assert_ne!(h, 6);
        assert_eq!(hc.cube().distance(6, h), 1, "host is a cube neighbour");
        assert_eq!(hc.load_factor(), 2);
        // Healthy nodes keep their identity.
        for n in 0..16 {
            if n != 6 {
                assert_eq!(hc.host_of(n), n);
            }
        }
    }

    #[test]
    fn hosts_balance_across_neighbours() {
        // Two dead nodes sharing neighbours must not pile onto one host
        // when a lighter one is available.
        let mut hc = Hypercube::new(3, CostModel::unit());
        hc.degrade(&[0, 3], &[0; 8]);
        assert_eq!(hc.load_factor(), 2, "no host takes two dead nodes here");
        assert_ne!(hc.host_of(0), hc.host_of(3));
    }

    #[test]
    fn dead_neighbours_are_skipped() {
        // 0's dim-0 neighbour (1) is dead too; 0 must pick a live host,
        // and a live host hosts itself.
        let mut hc = Hypercube::new(3, CostModel::unit());
        hc.degrade(&[0, 1], &[0; 8]);
        for dead in [0, 1] {
            let h = hc.host_of(dead);
            assert!(h != 0 && h != 1 && hc.host_of(h) == h, "{dead} hosted by dead {h}");
        }
        assert_eq!(hc.cube().distance(0, hc.host_of(0)), 1);
    }

    #[test]
    fn deterministic_regardless_of_input_order() {
        let degraded = |dead: &[NodeId]| {
            let mut hc = Hypercube::new(4, CostModel::unit());
            hc.degrade(dead, &[3; 16]);
            (hosts(&hc), hc.load_factor(), hc.ticks(), *hc.counters())
        };
        assert_eq!(degraded(&[3, 9, 12]), degraded(&[12, 3, 9]));
        assert_eq!(degraded(&[3, 9, 12]), degraded(&[9, 3, 12, 9]), "duplicates count once");
    }

    #[test]
    #[should_panic(expected = "no healthy neighbour")]
    fn isolated_dead_node_panics() {
        // Node 0's neighbours on a 2-cube are 1 and 2 — both dead, so
        // single-hop concentration cannot recover.
        Hypercube::new(2, CostModel::unit()).degrade(&[0, 1, 2], &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "every node is dead")]
    fn fully_dead_cube_panics() {
        Hypercube::new(1, CostModel::unit()).degrade(&[0, 1], &[0; 2]);
    }

    #[test]
    #[should_panic(expected = "already degraded")]
    fn degrading_twice_panics() {
        let mut hc = Hypercube::new(3, CostModel::unit());
        hc.degrade(&[5], &[0; 8]);
        hc.degrade(&[2], &[0; 8]);
    }

    #[test]
    fn degradation_and_a_fault_plan_compose_in_either_order() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::none(9).with_drops(0.1, 0, u64::MAX).with_link_fault(0, 1, 0);
        let mut plan_first = Hypercube::new(3, CostModel::unit());
        plan_first.install_faults(plan.clone());
        plan_first.degrade(&[5], &[2; 8]);
        let mut degrade_first = Hypercube::new(3, CostModel::unit());
        degrade_first.degrade(&[5], &[2; 8]);
        degrade_first.install_faults(plan.clone());
        for hc in [&plan_first, &degrade_first] {
            assert_eq!(hc.fault_plan(), Some(&plan));
            assert_eq!(hc.load_factor(), 2);
            assert_eq!(hc.host_of(5), 4);
        }
        assert_eq!(plan_first.ticks(), degrade_first.ticks());
        degrade_first.clear_faults();
        assert_eq!(degrade_first.load_factor(), 1, "clearing drops the host map too");
    }

    #[test]
    fn live_faults_tracks_plan_and_degradation() {
        use crate::fault::FaultPlan;
        let mut hc = Hypercube::new(3, CostModel::unit());
        assert!(!hc.live_faults());
        hc.install_faults(FaultPlan::none(7));
        assert!(hc.fault_plan().is_some());
        assert!(!hc.live_faults(), "an empty installed plan is not live");
        hc.install_faults(FaultPlan::none(7).with_link_fault(0, 1, 0));
        assert!(hc.live_faults());
        hc.clear_faults();
        hc.degrade(&[3], &[0; 8]);
        assert!(hc.live_faults(), "degradation counts as live faults");
    }

    #[test]
    fn choose_algo_falls_back_under_live_faults() {
        use crate::cost::{Algo, Collective};
        use crate::fault::FaultPlan;
        let mut hc = Hypercube::new(8, CostModel::cm2_allport());
        assert_eq!(hc.choose_algo(Collective::Broadcast, 8, 4096), Algo::AllPort { chunks: 2 });
        hc.install_faults(FaultPlan::none(1).with_drops(0.5, 0, 100));
        assert_eq!(
            hc.choose_algo(Collective::Broadcast, 8, 4096),
            Algo::SinglePort,
            "live faults force the single-port detour-capable path"
        );
    }

    #[test]
    fn charge_allport_matches_collective_time_and_counts_steps() {
        use crate::cost::{Algo, Collective};
        let kinds = [
            Collective::Broadcast,
            Collective::Reduce,
            Collective::Allreduce,
            Collective::Allgather,
            Collective::Scan,
        ];
        for kind in kinds {
            for (k, len, chunks) in [(6, 1000, 3), (5, 333, 4)] {
                let mut hc = Hypercube::new(6, CostModel::cm2_allport());
                hc.charge_allport(kind, k, len, chunks, 5000);
                let want = CostModel::collective_time(kind, k, len, Algo::AllPort { chunks });
                assert_eq!(hc.ticks(), want, "{kind:?} {k} {len} {chunks}: charged vs priced");
                let s = allport_schedule(kind, k, len, chunks);
                assert_eq!(hc.counters().allport_steps, s.steps as u64);
                assert_eq!(hc.counters().message_steps, s.steps as u64, "fault clock advances");
                assert_eq!(hc.counters().elements_transferred, 5000);
            }
        }
    }
}
