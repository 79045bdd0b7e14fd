//! Deterministic fault injection for the simulated machine.
//!
//! A [`FaultPlan`] describes *what goes wrong and when*: permanent link
//! failures (each with an activation step) and a transient message-drop
//! process over a step window. "When" is measured on the **fault
//! clock** — the machine's cumulative count of blocked message
//! supersteps ([`crate::counters::Counters::message_steps`]) — so a plan
//! replays identically for a given program, cost model and seed: every
//! fault decision is a pure hash of `(seed, step, canonical link,
//! attempt)` with no hidden state.
//!
//! Whole-node failures are not part of a plan.
//! [`Hypercube::degrade`](crate::machine::Hypercube::degrade) models a
//! dead node by hosting its logical block on a healthy neighbour, after
//! which the machine's host map makes the dead node's traffic local to
//! its host. A plan and a degradation compose in either order.
//!
//! What the machine does about it is fixed: a checksum detects a drop
//! as the message arrives, up to [`MAX_RETRIES`] retransmissions with
//! bounded exponential backoff from [`BACKOFF_US`] follow, and traffic
//! still failing is escalated to a detour around the link (charged as
//! extra hops). The recovery machinery only affects the modeled clock
//! and counters; results are computed whatever the plan, so results
//! under any recoverable plan are bit-identical to the fault-free run —
//! which is exactly what the chaos tests assert.

use crate::topology::NodeId;

/// A permanent failure of the channel between two neighbouring nodes,
/// active from `from_step` (fault clock) onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    /// One endpoint (order does not matter; links are canonicalized).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First fault-clock step at which the link is dead.
    pub from_step: u64,
}

/// A seeded, deterministic schedule of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all pseudo-random fault decisions.
    pub seed: u64,
    /// Permanent link failures.
    pub link_faults: Vec<LinkFault>,
    /// Per-(link, step, attempt) probability of a transient message drop
    /// in `[0, 1]`.
    pub drop_rate: f64,
    /// First fault-clock step of the transient-drop window.
    pub drop_from_step: u64,
    /// One past the last step of the transient-drop window
    /// (`u64::MAX` = open-ended).
    pub drop_until_step: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (the seed is kept for reproducibility
    /// bookkeeping only).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            link_faults: Vec::new(),
            drop_rate: 0.0,
            drop_from_step: 0,
            drop_until_step: u64::MAX,
        }
    }

    /// Add a permanent link failure (builder style).
    #[must_use]
    pub fn with_link_fault(mut self, a: NodeId, b: NodeId, from_step: u64) -> Self {
        self.link_faults.push(LinkFault { a, b, from_step });
        self
    }

    /// Enable transient drops at `rate` over fault-clock steps
    /// `[from_step, until_step)` (builder style).
    ///
    /// # Panics
    /// Panics unless `0 <= rate <= 1`.
    #[must_use]
    pub fn with_drops(mut self, rate: f64, from_step: u64, until_step: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "drop rate must be in [0, 1]");
        self.drop_rate = rate;
        self.drop_from_step = from_step;
        self.drop_until_step = until_step;
        self
    }

    /// Whether the plan injects no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.drop_rate == 0.0
    }

    /// Is the link `{a, b}` permanently dead at fault-clock `step`?
    #[must_use]
    pub fn link_dead(&self, a: NodeId, b: NodeId, step: u64) -> bool {
        let (lo, hi) = canonical(a, b);
        self.link_faults.iter().any(|f| canonical(f.a, f.b) == (lo, hi) && step >= f.from_step)
    }

    /// Does the message on link `{a, b}` at fault-clock `step` get
    /// dropped on transmission `attempt` (0 = first try)?
    ///
    /// Pure function of `(seed, step, link, attempt)` — replays
    /// identically and is independent across links, steps and attempts.
    #[must_use]
    pub fn transient_drop(&self, a: NodeId, b: NodeId, step: u64, attempt: u32) -> bool {
        if self.drop_rate <= 0.0 || step < self.drop_from_step || step >= self.drop_until_step {
            return false;
        }
        let (lo, hi) = canonical(a, b);
        let h = mix(self.seed, step, (lo as u64) << 32 | hi as u64, u64::from(attempt));
        // Top 53 bits give a uniform draw in [0, 1).
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        draw < self.drop_rate
    }
}

/// Retransmissions of a dropped message before the traffic is
/// escalated to a detour around the link.
pub const MAX_RETRIES: u32 = 4;

/// Backoff before the first retransmission, in microseconds; round `r`
/// waits `BACKOFF_US * 2^min(r, 20)` (bounded exponential backoff),
/// charged as that many backoff [`crate::cost::Ticks`]. Drops are
/// detected by an end-to-end checksum as the message arrives, so no
/// detection latency is added on top.
pub const BACKOFF_US: f64 = 1.0;

/// Canonical (unordered) form of a link.
#[inline]
fn canonical(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// splitmix64-style stateless mixer over the fault decision inputs.
fn mix(seed: u64, step: u64, link: u64, attempt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(link.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(attempt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none(42);
        assert!(plan.is_empty());
        assert!(!plan.link_dead(0, 1, 0));
        assert!(!plan.transient_drop(0, 1, 5, 0));
    }

    #[test]
    fn link_fault_respects_activation_step_and_orientation() {
        let plan = FaultPlan::none(1).with_link_fault(5, 4, 10);
        assert!(!plan.link_dead(4, 5, 9), "inactive before from_step");
        assert!(plan.link_dead(4, 5, 10));
        assert!(plan.link_dead(5, 4, 11), "orientation-independent");
        assert!(!plan.link_dead(4, 6, 10), "other links unaffected");
    }

    #[test]
    fn transient_drops_are_deterministic_and_windowed() {
        let plan = FaultPlan::none(99).with_drops(0.5, 10, 20);
        for step in 0..40u64 {
            for attempt in 0..3u32 {
                let d1 = plan.transient_drop(1, 3, step, attempt);
                let d2 = plan.transient_drop(3, 1, step, attempt);
                assert_eq!(d1, d2, "orientation-independent");
                if !(10..20).contains(&step) {
                    assert!(!d1, "outside window");
                }
            }
        }
        // At rate 0.5 over 10 steps x several links, some drop and some don't.
        let drops: usize = (10..20u64)
            .flat_map(|s| (0..4usize).map(move |l| (s, l)))
            .filter(|&(s, l)| plan.transient_drop(l, l + 1, s, 0))
            .count();
        assert!(drops > 0 && drops < 40, "rate 0.5 is neither 0 nor 1 ({drops}/40)");
    }

    #[test]
    fn drop_decisions_vary_with_attempt() {
        // A retry must get an independent draw, else retransmission
        // could never succeed on a dropped link.
        let plan = FaultPlan::none(7).with_drops(0.5, 0, u64::MAX);
        let varied = (0..64u64)
            .any(|step| plan.transient_drop(0, 1, step, 0) != plan.transient_drop(0, 1, step, 1));
        assert!(varied);
    }
}
