//! Event counters for the simulated machine.
//!
//! Beyond the simulated clock, the machine tallies raw communication and
//! arithmetic events. The counters let tests assert *structural* claims
//! (e.g. "a reduce over `d_r` dimensions issues exactly `d_r` message
//! supersteps") independent of the cost constants, and let the benchmark
//! harness report traffic alongside time.

/// Raw event tallies accumulated by a [`crate::machine::Hypercube`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Transient drops injected by the fault plan: in a collective's
    /// exchange step, one per affected link per failed transmission
    /// round; in the blocked router, one per dropped message per pass.
    pub transient_drops: u64,
    /// Retransmission rounds performed by the resilient path.
    pub retries: u64,
    /// Detours around a failed (or retry-exhausted) link: in a
    /// collective's exchange step, one per link; in the blocked router,
    /// one per detoured message.
    pub reroutes: u64,
    /// Extra store-and-forward hops charged for detours: two per reroute.
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
    fn reset_clears_everything() {
        let mut c =
            Counters { message_steps: 3, router_cycles: 9, retries: 4, ..Default::default() };
        c.reset();
        assert_eq!(c, Counters::default());
    }
}
