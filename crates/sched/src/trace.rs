//! Seeded arrival traces: the scheduler's workload generator.
//!
//! A [`Trace`] is a list of [`JobSpec`]s with exponential inter-arrival
//! times plus a list of timed node-failure events, all drawn from one
//! seeded generator — the same seed always produces the same trace, so
//! every experiment and differential test replays exactly.
//!
//! The mix mirrors the paper's three applications: frequent small
//! vector-matrix multiplies (latency-bound — more processors do not
//! help them), periodic Gaussian eliminations, and occasional simplex
//! solves, with a fraction of jobs carrying a recoverable transient-
//! drop [`FaultPlan`](vmp_hypercube::fault::FaultPlan). Arrivals are
//! bursty (exponential), so admission queues actually form and the
//! scheduling policy matters.

use crate::job::{exp_interarrival, JobKind, JobSpec};
use rand::Rng;
use vmp_algos::workloads;
use vmp_hypercube::topology::NodeId;

/// A node failure injected at machine level: at `at_us`, physical
/// `node` dies for good. The allocator quarantines it; a job running
/// on a subcube containing it is aborted and re-queued.
#[derive(Debug, Clone, Copy)]
pub struct FailureEvent {
    /// Simulated wall-clock time of the failure, microseconds.
    pub at_us: f64,
    /// The physical node that dies.
    pub node: NodeId,
}

/// A reproducible workload: jobs in arrival order plus failure events.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Jobs, sorted by `arrival_us`.
    pub jobs: Vec<JobSpec>,
    /// Machine-level node failures, sorted by `at_us`.
    pub failures: Vec<FailureEvent>,
}

/// Shape parameters for [`Trace::generate`].
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Machine dimension the trace targets (jobs request orders below
    /// this; failures hit nodes inside `2^dim`).
    pub dim: u32,
    /// Number of jobs.
    pub jobs: usize,
    /// Mean exponential inter-arrival gap, microseconds.
    pub mean_gap_us: f64,
    /// Number of permanent node failures spread over the arrival span.
    pub failures: usize,
}

impl TraceParams {
    /// The full-experiment trace at `dim = 10` (p = 1024). The mean
    /// gap is far below the mean service time, so demand overlaps:
    /// admission queues form and the policy choice is visible.
    #[must_use]
    pub fn full() -> Self {
        TraceParams { dim: 10, jobs: 48, mean_gap_us: 120.0, failures: 2 }
    }

    /// A seconds-not-minutes smoke trace on a 64-node machine.
    #[must_use]
    pub fn smoke() -> Self {
        TraceParams { dim: 6, jobs: 12, mean_gap_us: 300.0, failures: 1 }
    }
}

impl Trace {
    /// Generate the seeded trace for `params`. Deterministic: one
    /// `StdRng` drives sizes, gaps, drop rates, and failure times.
    #[must_use]
    pub fn generate(params: TraceParams, seed: u64) -> Trace {
        assert!(params.dim >= 4, "traces need room for order-4 subcubes");
        let mut r = workloads::rng(seed);
        let mut jobs = Vec::with_capacity(params.jobs);
        let mut clock = 0.0f64;
        for id in 0..params.jobs {
            clock += exp_interarrival(&mut r, params.mean_gap_us);
            // Mix: ~60% matvec, ~25% elimination, ~15% simplex.
            let draw: f64 = r.gen_range(0.0..1.0);
            let (kind, order) = if draw < 0.60 {
                let n = 64 + 16 * r.gen_range(0..5usize);
                // Never the whole machine: leave room for co-tenancy.
                let order = 4 + r.gen_range(0..3u32).min(params.dim.saturating_sub(5));
                (JobKind::Matvec { n }, order)
            } else if draw < 0.85 {
                let n = 16 + 2 * r.gen_range(0..7usize);
                // At these problem sizes elimination is communication-
                // bound: more processors make it *slower* (the paper's
                // own observation), so a big block is a long hold — the
                // contention that makes the admission policy matter.
                (JobKind::Gauss { n }, params.dim.saturating_sub(4).min(6))
            } else {
                let n = 8 + r.gen_range(0..5usize);
                (JobKind::Simplex { n }, params.dim.saturating_sub(4).min(6))
            };
            // ~10% of jobs run under a recoverable transient-drop plan.
            let drop_rate = if r.gen_range(0.0..1.0) < 0.10 { 0.02 } else { 0.0 };
            let seed = r.next_u64();
            jobs.push(JobSpec { id, kind, order, seed, arrival_us: clock, drop_rate });
        }
        // Failures land mid-trace on low node ids — the buddy allocator
        // packs from the bottom, so these hit live or imminent tenants.
        let span = clock;
        let mut failures: Vec<FailureEvent> = (0..params.failures)
            .map(|_| FailureEvent {
                at_us: span * r.gen_range(0.25..0.75),
                node: r.gen_range(0..(1usize << params.dim) / 4),
            })
            .collect();
        failures.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
        Trace { jobs, failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_replay_for_a_fixed_seed() {
        let a = Trace::generate(TraceParams::smoke(), 1989);
        let b = Trace::generate(TraceParams::smoke(), 1989);
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.seed, y.seed);
            assert!((x.arrival_us - y.arrival_us).abs() == 0.0);
        }
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn traces_differ_across_seeds_and_stay_sorted() {
        let a = Trace::generate(TraceParams::smoke(), 1);
        let b = Trace::generate(TraceParams::smoke(), 2);
        assert!(a.jobs.iter().zip(&b.jobs).any(|(x, y)| x.seed != y.seed));
        for w in a.jobs.windows(2) {
            assert!(w[0].arrival_us <= w[1].arrival_us, "arrivals sorted");
        }
        for t in [&a, &b] {
            for f in &t.failures {
                assert!(f.node < 64);
            }
        }
    }

    #[test]
    fn full_params_fit_the_claimed_machine() {
        let t = Trace::generate(TraceParams::full(), 1989);
        assert_eq!(t.jobs.len(), 48);
        assert!(t.jobs.iter().all(|j| j.order <= 10));
        assert!(t.jobs.iter().any(|j| j.drop_rate > 0.0), "some jobs must carry drops");
    }
}
