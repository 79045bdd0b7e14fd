//! The simulated hypercube multiprocessor.
//!
//! [`Hypercube`] bundles the cube topology, the cost model, a simulated
//! clock and event counters. It does **not** own application data:
//! distributed data lives in caller-held per-processor buffers — a flat
//! [`crate::slab::NodeSlab`] (or [`crate::slab::SegSlab`]) indexed by
//! [`NodeId`] — and the communication routines in [`crate::collective`]
//! and [`crate::route`] transform those buffers while charging the
//! machine for the time the operation would take.
//!
//! The accounting discipline is BSP-like and matches the analyses in the
//! Johnsson/Ho reports: execution is a sequence of *supersteps*; a
//! communication superstep in which every node exchanges at most `n`
//! elements with a neighbour costs `alpha + n * beta`; a local compute
//! superstep costs `gamma * f` where `f` is the critical-path (maximum
//! per-processor) operation count. Because the simulator really moves the
//! data, results are bit-exact and independently testable against serial
//! oracles; only the *clock* is modelled.

use crate::cost::{allport_schedule, Algo, Collective, CostModel};
use crate::counters::Counters;
use crate::fault::{FaultPlan, ResilientConfig};
use crate::topology::{Cube, NodeId};

/// Fault-injection state installed on a machine: the plan, the recovery
/// policy, and the logical→physical host map used for graceful
/// degradation after node failures.
#[derive(Debug, Clone)]
struct FaultCtx {
    plan: FaultPlan,
    config: ResilientConfig,
    /// `host_map[logical] = physical` — which healthy node actually
    /// hosts each logical node's block after degradation remaps.
    host_map: Vec<NodeId>,
    /// Max logical nodes per physical host (1 = no degradation); local
    /// compute supersteps serialize by this factor.
    load_factor: usize,
}

/// A simulated Boolean-cube multiprocessor: topology + cost accounting.
#[derive(Debug, Clone)]
pub struct Hypercube {
    cube: Cube,
    cost: CostModel,
    clock_us: f64,
    counters: Counters,
    fault: Option<Box<FaultCtx>>,
}

impl Hypercube {
    /// A machine with `2^dim` processors under the given cost model.
    #[must_use]
    pub fn new(dim: u32, cost: CostModel) -> Self {
        Hypercube {
            cube: Cube::new(dim),
            cost,
            clock_us: 0.0,
            counters: Counters::default(),
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
        self.fault.as_deref().is_some_and(|ctx| !ctx.plan.is_empty() || ctx.load_factor > 1)
    }

    /// Choose the schedule for one collective call over `k` dimensions
    /// with critical-path segment length `max_len`: [`CostModel::choose`]
    /// under the machine's cost model and live fault state.
    #[must_use]
    pub fn choose_algo(&self, kind: Collective, k: usize, max_len: usize) -> Algo {
        self.cost.choose(kind, k, max_len, self.live_faults())
    }

    /// Charge the all-port schedule for one collective: `steps`
    /// concurrent supersteps of `message(per_port)` plus the per-step
    /// critical-path combines. Each superstep advances the fault clock
    /// like any other message step (all-port schedules only run when
    /// [`Hypercube::live_faults`] is false, so there is no detour
    /// machinery to consult). `total_elements` is the machine-wide
    /// element count for the whole collective, booked on the first step.
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
    /// [`Hypercube::reset`], in microseconds.
    #[inline]
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        self.clock_us
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
        self.clock_us = 0.0;
        self.counters.reset();
    }

    // ----- fault injection & graceful degradation ----------------------

    /// Install a fault plan and recovery policy. Until this is called
    /// (or after [`Hypercube::clear_faults`]) the machine takes the
    /// plain communication paths with zero overhead.
    pub fn install_faults(&mut self, plan: FaultPlan, config: ResilientConfig) {
        let host_map = (0..self.p()).collect();
        self.fault = Some(Box::new(FaultCtx { plan, config, host_map, load_factor: 1 }));
    }

    /// Remove any installed fault state (host map included).
    pub fn clear_faults(&mut self) {
        self.fault = None;
    }

    /// Whether a fault plan is installed.
    #[inline]
    #[must_use]
    pub fn fault_active(&self) -> bool {
        self.fault.is_some()
    }

    /// The installed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref().map(|ctx| &ctx.plan)
    }

    /// The installed recovery policy, if any.
    #[must_use]
    pub fn resilient_config(&self) -> Option<&ResilientConfig> {
        self.fault.as_deref().map(|ctx| &ctx.config)
    }

    /// The current fault clock: message supersteps executed so far.
    /// [`FaultPlan`] activation schedules are expressed on this clock.
    #[inline]
    #[must_use]
    pub fn fault_step(&self) -> u64 {
        self.counters.message_steps
    }

    /// Physical host of `logical` under the degradation host map
    /// (identity when no fault state or no remap has been applied).
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

    /// Remap the dead node `dead` (and anything it was hosting) onto the
    /// healthy node `host`: graceful degradation after a node failure.
    /// Subsequent traffic between co-hosted logical nodes is local, and
    /// local compute supersteps serialize by the resulting load factor.
    ///
    /// Installs an empty fault plan if none is present, so degradation
    /// can be exercised without injected communication faults.
    ///
    /// # Panics
    /// Panics if `dead == host` or either node is out of range.
    pub fn remap_node(&mut self, dead: NodeId, host: NodeId) {
        assert!(dead != host, "cannot host a dead node on itself");
        assert!(self.cube.contains(dead) && self.cube.contains(host), "remap node out of range");
        if self.fault.is_none() {
            self.install_faults(FaultPlan::none(0), ResilientConfig::default());
        }
        let ctx = self.fault.as_deref_mut().expect("fault ctx just installed");
        assert!(ctx.host_map[host] == host, "target host {host} is itself remapped away");
        for h in ctx.host_map.iter_mut() {
            if *h == dead {
                *h = host;
            }
        }
        let p = ctx.host_map.len();
        let mut mult = vec![0usize; p];
        for &h in &ctx.host_map {
            mult[h] += 1;
        }
        ctx.load_factor = mult.into_iter().max().unwrap_or(1);
        self.counters.node_remaps += 1;
    }

    /// Record `elements` migrated off a dead node during a degradation
    /// remap (the traffic itself is charged by the routing that moves it).
    pub fn note_migration(&mut self, elements: u64) {
        self.counters.migrated_elements += elements;
    }

    // ----- charging primitives (called by communication/compute code) ---

    /// Charge one blocked message superstep: every active node exchanges
    /// at most `max_per_channel` elements with one neighbour.
    /// `total_elements` is the machine-wide element count, for counters.
    pub fn charge_message_step(&mut self, max_per_channel: usize, total_elements: u64) {
        self.clock_us += self.cost.message(max_per_channel);
        self.counters.message_steps += 1;
        self.counters.elements_transferred += total_elements;
        self.counters.max_channel_load = self.counters.max_channel_load.max(max_per_channel as u64);
    }

    /// Charge one blocked message superstep over the explicit set of
    /// `(src, dst)` transfer `pairs` — the fault-aware variant of
    /// [`Hypercube::charge_message_step`] used by every collective.
    ///
    /// Without installed fault state this delegates to the plain charge
    /// (identical clock and counters — zero overhead). With fault state:
    ///
    /// * pairs mapped to the same physical host by degradation are
    ///   local copies, not channel traffic;
    /// * traffic over permanently dead links detours around the link
    ///   (two extra hops charged on the critical path, counted under
    ///   `reroutes`/`detour_hops`);
    /// * transient drops are detected per [`ResilientConfig::detect`]
    ///   and retransmitted with bounded exponential backoff (counted
    ///   under `transient_drops`/`retries`); links still dropping after
    ///   `max_retries` rounds escalate to a detour, so the superstep
    ///   always completes.
    ///
    /// All fault decisions are keyed to the fault-clock value at entry,
    /// so a given program and plan replay identically.
    pub fn charge_exchange_step(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        max_per_channel: usize,
        total_elements: u64,
    ) {
        let Some(ctx) = self.fault.take() else {
            self.charge_message_step(max_per_channel, total_elements);
            return;
        };
        let step = self.counters.message_steps;

        // Physical channels in use after the degradation host map,
        // canonicalized and deduplicated.
        let mut links: Vec<(NodeId, NodeId)> = pairs
            .iter()
            .map(|&(a, b)| {
                let (pa, pb) = (ctx.host_map[a], ctx.host_map[b]);
                (pa.min(pb), pa.max(pb))
            })
            .filter(|&(pa, pb)| pa != pb)
            .collect();
        links.sort_unstable();
        links.dedup();

        if !pairs.is_empty() && links.is_empty() {
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
            self.charge_raw_us(ctx.config.detect_latency_us());
            if attempt >= ctx.config.max_retries {
                // Retries exhausted: route the stuck traffic around.
                self.charge_detour(pending.len() as u64, max_per_channel);
                break;
            }
            self.counters.retries += 1;
            self.charge_raw_us(ctx.config.backoff_us * f64::from(1u32 << attempt.min(20)));
            self.charge_message_step(
                max_per_channel,
                pending.len() as u64 * max_per_channel as u64,
            );
            attempt += 1;
        }

        self.fault = Some(ctx);
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
        let effective = critical_flops * self.load_factor();
        self.clock_us += self.cost.flops(effective);
        self.counters.flops += effective as u64;
    }

    /// Charge a local data-movement superstep of `critical_moves` element
    /// copies on the busiest processor.
    pub fn charge_moves(&mut self, critical_moves: usize) {
        self.clock_us += self.cost.moves(critical_moves);
        self.counters.local_moves += critical_moves as u64;
    }

    /// Charge the per-element injection overhead of the general router
    /// (naive baseline): the busiest processor injects
    /// `max_injected_per_node` individually addressed elements.
    pub fn charge_router_injection(&mut self, max_injected_per_node: usize, total_elements: u64) {
        self.clock_us += self.cost.router_alpha * max_injected_per_node as f64;
        self.counters.router_elements += total_elements;
    }

    /// Charge `cycles` router petit cycles (naive baseline).
    pub fn charge_router_cycles(&mut self, cycles: u64) {
        self.clock_us += self.cost.router_cycle * cycles as f64;
        self.counters.router_cycles += cycles;
    }

    /// Add raw time (used by ablation schedules that price themselves).
    pub fn charge_raw_us(&mut self, us: f64) {
        debug_assert!(us >= 0.0);
        self.clock_us += us;
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
        resil.charge_exchange_step(&pairs, 6, 12);
        assert_eq!(plain.elapsed_us(), resil.elapsed_us());
        assert_eq!(plain.counters(), resil.counters());
    }

    #[test]
    fn exchange_step_with_empty_plan_is_zero_overhead() {
        use crate::fault::{FaultPlan, ResilientConfig};
        let mut plain = Hypercube::new(3, CostModel::unit());
        let mut resil = Hypercube::new(3, CostModel::unit());
        resil.install_faults(FaultPlan::none(17), ResilientConfig::default());
        for i in 0..10usize {
            let pairs = [(i % 8, (i % 8) ^ 1)];
            plain.charge_exchange_step(&pairs, 4, 4);
            resil.charge_exchange_step(&pairs, 4, 4);
        }
        assert_eq!(plain.elapsed_us(), resil.elapsed_us());
        assert_eq!(plain.counters(), resil.counters());
    }

    #[test]
    fn dead_link_charges_detour_and_counts_reroute() {
        use crate::fault::{FaultPlan, ResilientConfig};
        let mut hc = Hypercube::new(3, CostModel::unit());
        hc.install_faults(FaultPlan::none(1).with_link_fault(0, 1, 0), ResilientConfig::default());
        hc.charge_exchange_step(&[(0, 1)], 5, 5);
        assert_eq!(hc.counters().reroutes, 1);
        assert_eq!(hc.counters().detour_hops, 2);
        // Base superstep + two detour hops, each alpha + 5*beta.
        assert_eq!(hc.elapsed_us(), 3.0 * (1.0 + 5.0));
        assert_eq!(hc.counters().message_steps, 3);
    }

    #[test]
    fn certain_drop_retries_until_escalation() {
        use crate::fault::{FaultPlan, ResilientConfig};
        let mut hc = Hypercube::new(3, CostModel::unit());
        let cfg = ResilientConfig { max_retries: 2, backoff_us: 1.0, ..Default::default() };
        hc.install_faults(FaultPlan::none(1).with_drops(1.0, 0, u64::MAX), cfg);
        hc.charge_exchange_step(&[(0, 1)], 2, 2);
        // rate 1.0 drops every attempt: 2 retries then detour escalation.
        assert_eq!(hc.counters().retries, 2);
        assert_eq!(hc.counters().transient_drops, 3, "initial try + 2 retries all dropped");
        assert_eq!(hc.counters().reroutes, 1, "escalated after retry budget");
        // backoff 1*2^0 + 1*2^1 = 3us on top of message charges.
        let msg = 1.0 + 2.0;
        assert_eq!(hc.elapsed_us(), 5.0 * msg + 3.0);
    }

    #[test]
    fn remap_makes_traffic_local_and_scales_flops() {
        use crate::fault::FaultPlan;
        let mut hc = Hypercube::new(2, CostModel::unit());
        assert_eq!(hc.host_of(3), 3);
        hc.remap_node(3, 1);
        assert!(hc.fault_active(), "remap auto-installs an empty plan");
        assert!(hc.fault_plan().expect("plan installed").is_empty());
        assert_eq!(hc.host_of(3), 1);
        assert_eq!(hc.load_factor(), 2);
        assert_eq!(hc.counters().node_remaps, 1);
        // Traffic 1<->3 is now co-hosted: a local-move superstep.
        hc.charge_exchange_step(&[(1, 3)], 4, 4);
        assert_eq!(hc.counters().message_steps, 0);
        assert_eq!(hc.counters().local_moves, 4);
        // Compute serializes 2x on the doubled-up host.
        let before = hc.counters().flops;
        hc.charge_flops(10);
        assert_eq!(hc.counters().flops - before, 20);
        // Remapping the already-moved host's guest chains onto a new host.
        hc.remap_node(1, 0);
        assert_eq!(hc.host_of(3), 0);
        assert_eq!(hc.host_of(1), 0);
        assert_eq!(hc.load_factor(), 3);
        let _ = FaultPlan::none(0);
    }

    #[test]
    fn live_faults_tracks_plan_and_degradation() {
        use crate::fault::{FaultPlan, ResilientConfig};
        let mut hc = Hypercube::new(3, CostModel::unit());
        assert!(!hc.live_faults());
        hc.install_faults(FaultPlan::none(7), ResilientConfig::default());
        assert!(hc.fault_active());
        assert!(!hc.live_faults(), "an empty installed plan is not live");
        hc.install_faults(FaultPlan::none(7).with_link_fault(0, 1, 0), ResilientConfig::default());
        assert!(hc.live_faults());
        hc.clear_faults();
        hc.remap_node(3, 1);
        assert!(hc.live_faults(), "degradation remaps count as live faults");
    }

    #[test]
    fn choose_algo_falls_back_under_live_faults() {
        use crate::cost::{Algo, Collective};
        use crate::fault::{FaultPlan, ResilientConfig};
        let mut hc = Hypercube::new(8, CostModel::cm2_allport());
        assert_eq!(hc.choose_algo(Collective::Broadcast, 8, 4096), Algo::AllPort { chunks: 2 });
        hc.install_faults(FaultPlan::none(1).with_drops(0.5, 0, 100), ResilientConfig::default());
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
            let mut hc = Hypercube::new(6, CostModel::cm2_allport());
            hc.charge_allport(kind, 6, 1000, 3, 5000);
            let want = CostModel::cm2_allport().collective_time(
                kind,
                6,
                1000,
                Algo::AllPort { chunks: 3 },
            );
            assert!(
                (hc.elapsed_us() - want).abs() < 1e-9,
                "{kind:?}: charged {} vs priced {want}",
                hc.elapsed_us()
            );
            let s = allport_schedule(kind, 6, 1000, 3);
            assert_eq!(hc.counters().allport_steps, s.steps as u64);
            assert_eq!(hc.counters().message_steps, s.steps as u64, "fault clock advances");
            assert_eq!(hc.counters().elements_transferred, 5000);
        }
    }
}
