//! Event counters for the simulated machine.
//!
//! Beyond the simulated clock, the machine tallies raw communication and
//! arithmetic events. The counters let tests assert *structural* claims
//! (e.g. "a reduce over `d_r` dimensions issues exactly `d_r` message
//! supersteps") independent of the cost constants, and let the benchmark
//! harness report traffic alongside time.

use serde::{Deserialize, Serialize};

/// Raw event tallies accumulated by a [`crate::machine::Hypercube`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Blocked neighbour-message supersteps executed (one per exchange
    /// phase, regardless of how many node pairs exchange in parallel).
    pub message_steps: u64,
    /// Supersteps in which all ports of a node were driven concurrently
    /// (the all-port collective schedules; also counted in
    /// `message_steps`).
    pub allport_steps: u64,
    /// Total elements crossing channels, summed over all channels.
    pub elements_transferred: u64,
    /// Maximum elements crossing any single channel in any step (a
    /// congestion proxy).
    pub max_channel_load: u64,
    /// Arithmetic operations charged (max over processors, summed over
    /// steps — i.e. the critical-path flop count).
    pub flops: u64,
    /// Local element moves charged (critical path).
    pub local_moves: u64,
    /// Individually-injected router elements (naive baseline only).
    pub router_elements: u64,
    /// Router petit cycles consumed (naive baseline only).
    pub router_cycles: u64,
    /// Transient message drops injected by the fault plan (one per
    /// affected link per failed transmission round).
    pub transient_drops: u64,
    /// Retransmission rounds performed by the resilient path.
    pub retries: u64,
    /// Link traversals redirected around a failed (or retry-exhausted)
    /// link via a detour.
    pub reroutes: u64,
    /// Extra store-and-forward hops charged for detours.
    pub detour_hops: u64,
    /// Dead-node remaps applied to the machine's host map.
    pub node_remaps: u64,
    /// Elements migrated off dead nodes during degradation remaps.
    pub migrated_elements: u64,
}

impl Counters {
    /// Reset all tallies to zero.
    pub fn reset(&mut self) {
        *self = Counters::default();
    }

    /// Run `f` on the machine and return its result together with the
    /// counter deltas the run produced — a copy/[`Counters::since`]
    /// bracket as one call, so callers cannot pair a copy with the wrong
    /// machine or forget the diff. This is how the multi-tenant
    /// scheduler scopes counters per job.
    pub fn scoped<R>(
        hc: &mut crate::machine::Hypercube,
        f: impl FnOnce(&mut crate::machine::Hypercube) -> R,
    ) -> (R, Counters) {
        let before = *hc.counters();
        let result = f(hc);
        let delta = hc.counters().since(&before);
        (result, delta)
    }

    /// Difference `self - earlier`, for bracketing a measured region.
    /// Saturates instead of panicking if `earlier` is not actually
    /// earlier (e.g. snapshots taken across a [`Counters::reset`]).
    #[must_use]
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            message_steps: self.message_steps.saturating_sub(earlier.message_steps),
            allport_steps: self.allport_steps.saturating_sub(earlier.allport_steps),
            elements_transferred: self
                .elements_transferred
                .saturating_sub(earlier.elements_transferred),
            max_channel_load: self.max_channel_load.max(earlier.max_channel_load),
            flops: self.flops.saturating_sub(earlier.flops),
            local_moves: self.local_moves.saturating_sub(earlier.local_moves),
            router_elements: self.router_elements.saturating_sub(earlier.router_elements),
            router_cycles: self.router_cycles.saturating_sub(earlier.router_cycles),
            transient_drops: self.transient_drops.saturating_sub(earlier.transient_drops),
            retries: self.retries.saturating_sub(earlier.retries),
            reroutes: self.reroutes.saturating_sub(earlier.reroutes),
            detour_hops: self.detour_hops.saturating_sub(earlier.detour_hops),
            node_remaps: self.node_remaps.saturating_sub(earlier.node_remaps),
            migrated_elements: self.migrated_elements.saturating_sub(earlier.migrated_elements),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let c = Counters::default();
        assert_eq!(c.message_steps, 0);
        assert_eq!(c.elements_transferred, 0);
        assert_eq!(c.flops, 0);
    }

    #[test]
    fn since_subtracts_monotone_fields() {
        let early =
            Counters { message_steps: 2, elements_transferred: 10, flops: 5, ..Default::default() };
        let late =
            Counters { message_steps: 7, elements_transferred: 30, flops: 9, ..Default::default() };
        let d = late.since(&early);
        assert_eq!(d.message_steps, 5);
        assert_eq!(d.elements_transferred, 20);
        assert_eq!(d.flops, 4);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c =
            Counters { message_steps: 3, router_cycles: 9, retries: 4, ..Default::default() };
        c.reset();
        assert_eq!(c, Counters::default());
    }

    #[test]
    fn scoped_brackets_a_measured_region() {
        use crate::cost::CostModel;
        use crate::machine::Hypercube;
        let mut hc = Hypercube::new(3, CostModel::unit());
        hc.charge_message_step(4, 8); // pre-existing activity outside the scope
        let (value, delta) = Counters::scoped(&mut hc, |hc| {
            hc.charge_message_step(2, 2);
            hc.charge_flops(5);
            42usize
        });
        assert_eq!(value, 42);
        assert_eq!(delta.message_steps, 1, "only the scoped superstep is counted");
        assert_eq!(delta.elements_transferred, 2);
        assert_eq!(delta.flops, 5);
        assert_eq!(hc.counters().message_steps, 2, "the live tallies keep everything");
    }

    #[test]
    fn snapshot_copies_and_since_saturates() {
        let snap = Counters { message_steps: 3, transient_drops: 2, ..Default::default() };
        // A copy taken before a reset is "later" than the live
        // counters; since() must not panic on the underflow.
        let fresh = Counters::default();
        let d = fresh.since(&snap);
        assert_eq!(d.message_steps, 0);
        assert_eq!(d.transient_drops, 0);
    }
}
