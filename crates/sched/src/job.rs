//! Schedulable jobs: the paper's three applications as tenants.
//!
//! A [`JobSpec`] is a seeded, self-contained description of one run of
//! a vector-matrix multiply, a Gaussian elimination, or a simplex
//! solve. It knows how to execute itself on a machine of its requested
//! order ([`JobSpec::execute`]), how to predict its own service time
//! from the `vmp::analysis` cost model (the SPJF ranking key), and how
//! to serialise its result to a canonical word vector — `f64::to_bits`
//! plus status tags — so the scheduler's bit-identity contract is a
//! plain `Vec<u64>` equality.
//!
//! Each execution runs on a **fresh** machine of the job's order.
//! Under the scheduler that machine is the logical view of an aligned
//! subcube; because aligned subcubes keep their low dimensions free
//! (see [`crate::subcube`]), the logical machine is isomorphic to a
//! standalone one — same Gray-code embeddings, same supersteps, same
//! bits out. A fresh machine per attempt also pins the fault clock to
//! zero, so a job's transient-drop plan replays identically no matter
//! when or where the job is scheduled.

use rand::Rng;
use vmp_algos::serial::SimplexStatus;
use vmp_algos::workloads;
use vmp_algos::{gauss, matvec as mv, simplex};
use vmp_core::{analysis, DistMatrix, DistVector};
use vmp_hypercube::cost::{CostModel, Ticks};
use vmp_hypercube::counters::Counters;
use vmp_hypercube::fault::FaultPlan;
use vmp_hypercube::machine::Hypercube;
use vmp_hypercube::topology::{Cube, NodeId};
use vmp_layout::{Axis, Dist, MatShape, MatrixLayout, Placement, ProcGrid, VectorLayout};

/// Which of the paper's applications a job runs, with its problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// `y = A x` on an `n x n` matrix: one elementwise pass + reduce.
    Matvec {
        /// Matrix side.
        n: usize,
    },
    /// Gaussian elimination with partial pivoting on an `n x n` system.
    Gauss {
        /// System size.
        n: usize,
    },
    /// Dense-tableau primal simplex on an `n`-constraint, `n`-variable LP.
    Simplex {
        /// Constraint and variable count.
        n: usize,
    },
}

impl JobKind {
    /// Short name for tables and traces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Matvec { .. } => "matvec",
            JobKind::Gauss { .. } => "gauss",
            JobKind::Simplex { .. } => "simplex",
        }
    }
}

/// One job in an arrival trace.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Trace-unique identifier.
    pub id: usize,
    /// What to run.
    pub kind: JobKind,
    /// Requested subcube order (the job runs on `2^order` nodes).
    pub order: u32,
    /// Seed for the job's own data (matrix entries, rhs, LP).
    pub seed: u64,
    /// Arrival time on the simulated wall clock, microseconds.
    pub arrival_us: f64,
    /// Transient-drop rate of the job's recoverable [`FaultPlan`]
    /// (zero for a fault-free job).
    pub drop_rate: f64,
}

/// The canonical result of one job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Result bytes as `f64::to_bits` words plus status tags — the
    /// bit-identity contract is equality of this vector.
    pub words: Vec<u64>,
    /// Simulated service time of the run, microseconds.
    pub service_us: f64,
    /// The run's counters: the machine is fresh, so they are the run's
    /// own.
    pub counters: Counters,
}

impl JobSpec {
    /// The job's recoverable fault plan: transient drops at
    /// [`JobSpec::drop_rate`] for the whole run, seeded by the job seed.
    /// Empty when the rate is zero.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        if self.drop_rate > 0.0 {
            FaultPlan::none(self.seed).with_drops(self.drop_rate, 0, u64::MAX)
        } else {
            FaultPlan::none(self.seed)
        }
    }

    /// Execute on a fresh machine of the job's own order — the
    /// standalone reference run every scheduled run must match
    /// bit-for-bit.
    #[must_use]
    pub fn run_standalone(&self, cost: CostModel) -> JobOutput {
        self.execute(cost, &[])
    }

    /// Execute on a fresh machine of the job's order with the given
    /// logical nodes dead (degraded mode; at most one node, single-hop
    /// recoverable). Empty `dead_locals` is the healthy path.
    #[must_use]
    pub fn execute(&self, cost: CostModel, dead_locals: &[NodeId]) -> JobOutput {
        let mut hc = Hypercube::new(self.order, cost);
        let words = self.run_on(&mut hc, dead_locals);
        JobOutput { words, service_us: hc.elapsed_us(), counters: *hc.counters() }
    }

    /// Predicted service time on a `2^order`-node subcube, from the
    /// analysis chapter's closed forms: the predicted ticks, priced by
    /// `cost`. Only the *ranking* matters (it drives
    /// shortest-predicted-job-first), so the per-kind models are
    /// first-order: dominant primitive calls plus the elementwise flops.
    #[must_use]
    pub fn predicted_us(&self, order: u32, cost: &CostModel) -> f64 {
        let grid = ProcGrid::square(Cube::new(order));
        let ticks = match self.kind {
            JobKind::Matvec { n } => {
                let layout = MatrixLayout::cyclic(MatShape::new(n, n), grid);
                analysis::predicted_reduce(&layout, cost)
                    + Ticks::flops(analysis::local_block(&layout))
            }
            JobKind::Gauss { n } => {
                let layout = MatrixLayout::cyclic(MatShape::new(n, n + 1), grid);
                let per_step = analysis::predicted_extract_replicated(&layout, cost) * 2
                    + Ticks::flops(2 * analysis::local_block(&layout));
                per_step * n
            }
            JobKind::Simplex { n } => {
                // Tableau is (n+1) x (2n+1); expect O(n) pivots, each two
                // extractions (pivot row/column) plus a rank-1 update.
                let layout = MatrixLayout::cyclic(MatShape::new(n + 1, 2 * n + 1), grid);
                let per_pivot = analysis::predicted_extract_replicated(&layout, cost) * 2
                    + Ticks::flops(2 * analysis::local_block(&layout));
                per_pivot * (2 * n)
            }
        };
        cost.price(ticks)
    }

    /// The body of one execution: build the working set, apply graceful
    /// degradation if the subcube carries a casualty, install the job's
    /// recoverable fault plan, run the solver, serialise.
    fn run_on(&self, hc: &mut Hypercube, dead_locals: &[NodeId]) -> Vec<u64> {
        let grid = ProcGrid::square(hc.cube());
        let words = match self.kind {
            JobKind::Matvec { n } => {
                let d = workloads::random_matrix(n, n, self.seed);
                let xh = workloads::random_vector(n, self.seed ^ 0x9e37_79b9);
                let a =
                    DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid), |i, j| {
                        d.get(i, j)
                    });
                let x = DistVector::from_slice(
                    VectorLayout::aligned(n, grid, Axis::Row, Placement::Replicated, Dist::Cyclic),
                    &xh,
                );
                let mut resident = layout_sizes_mat(a.layout(), hc.p());
                for (r, node) in resident.iter_mut().zip(0..hc.p()) {
                    *r += x.layout().local_len(node);
                }
                self.prepare(hc, dead_locals, &resident);
                let y = mv::matvec(hc, &a, &x);
                y.to_dense().iter().map(|v| v.to_bits()).collect()
            }
            JobKind::Gauss { n } => {
                let (a, b, _x) = workloads::diag_dominant_system(n, self.seed);
                let layout = MatrixLayout::cyclic(MatShape::new(n, n + 1), grid);
                let mut aug =
                    DistMatrix::from_fn(layout, |i, j| if j < n { a.get(i, j) } else { b[i] });
                self.prepare(hc, dead_locals, &layout_sizes_mat(aug.layout(), hc.p()));
                match gauss::ge_solve_dist(hc, &mut aug) {
                    Ok((x, _stats)) => {
                        let mut w = vec![1u64];
                        w.extend(x.iter().map(|v| v.to_bits()));
                        w
                    }
                    Err(_) => vec![u64::MAX],
                }
            }
            JobKind::Simplex { n } => {
                let lp = workloads::random_dense_lp(n, n, self.seed);
                // The solver builds an (n+1) x (2n+1) tableau; price that
                // working set for degradation without materialising it.
                let t_layout = MatrixLayout::cyclic(MatShape::new(n + 1, 2 * n + 1), grid);
                self.prepare(hc, dead_locals, &layout_sizes_mat(&t_layout, hc.p()));
                let r = simplex::solve_parallel(hc, &lp, grid, 50 * n.max(1));
                let status = match r.status {
                    SimplexStatus::Optimal => 1u64,
                    SimplexStatus::Unbounded => 2,
                    SimplexStatus::Infeasible => 3,
                    SimplexStatus::MaxIterations => 4,
                };
                let mut w = vec![status, r.iterations as u64, r.objective.to_bits()];
                w.extend(r.x.iter().map(|v| v.to_bits()));
                w
            }
        };
        hc.clear_faults();
        words
    }

    /// Degrade around any dead logical nodes, then arm the fault plan
    /// (which leaves the degraded host map in force).
    fn prepare(&self, hc: &mut Hypercube, dead_locals: &[NodeId], resident: &[usize]) {
        hc.degrade(dead_locals, resident);
        let plan = self.plan();
        if !plan.is_empty() {
            hc.install_faults(plan);
        }
    }
}

/// Per-node resident element counts a matrix layout implies — what the
/// degradation migration must move off a dead node.
fn layout_sizes_mat(layout: &MatrixLayout, p: usize) -> Vec<usize> {
    (0..p).map(|node| layout.local_len(node)).collect()
}

/// Exponential inter-arrival sampler used by the trace generator:
/// inverse-CDF on a seeded uniform draw, so traces are reproducible.
pub(crate) fn exp_interarrival(rng: &mut impl Rng, mean_us: f64) -> f64 {
    // The sampler draws in [0, 1); 1 - u never reaches zero, so ln is
    // always finite.
    let u: f64 = rng.gen_range(0.0..1.0);
    -mean_us * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: JobKind, order: u32, seed: u64, drop_rate: f64) -> JobSpec {
        JobSpec { id: 0, kind, order, seed, arrival_us: 0.0, drop_rate }
    }

    #[test]
    fn executions_are_deterministic() {
        for kind in [JobKind::Matvec { n: 24 }, JobKind::Gauss { n: 10 }, JobKind::Simplex { n: 6 }]
        {
            let s = spec(kind, 3, 42, 0.0);
            let a = s.run_standalone(CostModel::cm2());
            let b = s.run_standalone(CostModel::cm2());
            assert_eq!(a, b, "{} must replay bit-identically", kind.name());
            assert!(a.service_us > 0.0);
            assert!(a.counters.message_steps > 0, "{} should communicate", kind.name());
        }
    }

    #[test]
    fn recoverable_drops_are_result_invisible() {
        let clean = spec(JobKind::Gauss { n: 10 }, 3, 7, 0.0).run_standalone(CostModel::cm2());
        let noisy = spec(JobKind::Gauss { n: 10 }, 3, 7, 0.05).run_standalone(CostModel::cm2());
        assert_eq!(clean.words, noisy.words, "drops must not change result bits");
        assert!(noisy.counters.retries > 0, "the plan should actually bite");
        assert!(noisy.service_us > clean.service_us, "retries cost time");
    }

    #[test]
    fn degraded_run_is_bit_identical() {
        // Under a drop plan too: arming the plan must not undo the
        // degradation, so the doubled-up host still doubles every flop.
        for drop_rate in [0.0, 0.02] {
            for kind in
                [JobKind::Matvec { n: 24 }, JobKind::Gauss { n: 10 }, JobKind::Simplex { n: 6 }]
            {
                let s = spec(kind, 3, 11, drop_rate);
                let healthy = s.run_standalone(CostModel::cm2());
                let degraded = s.execute(CostModel::cm2(), &[5]);
                let name = kind.name();
                assert_eq!(healthy.words, degraded.words, "{name} @ {drop_rate}: degraded bits");
                assert_eq!(
                    degraded.counters.flops,
                    2 * healthy.counters.flops,
                    "{name} @ {drop_rate}: the doubled-up host serialises compute"
                );
                assert!(degraded.service_us > healthy.service_us, "{name} @ {drop_rate}");
            }
        }
    }

    #[test]
    fn spjf_key_orders_small_before_large() {
        let cost = CostModel::cm2();
        let small = spec(JobKind::Matvec { n: 16 }, 4, 1, 0.0).predicted_us(4, &cost);
        let large = spec(JobKind::Gauss { n: 24 }, 4, 1, 0.0).predicted_us(4, &cost);
        assert!(small < large, "matvec must rank before elimination ({small} vs {large})");
    }

    #[test]
    fn predicted_us_stays_consistent_under_allport_model() {
        // The SPJF key routes its communication terms through the same
        // schedule selector the machine uses, so switching the cluster to
        // an all-port cost model moves predictions and executions
        // together: matvec's key tracks its simulated service time
        // exactly, and no kind's key ever prices the ported schedule
        // above the single-port one it replaces.
        let sp = CostModel::cm2();
        let ap = CostModel::cm2_allport();

        let s = spec(JobKind::Matvec { n: 32 }, 4, 3, 0.0);
        let out = s.run_standalone(ap);
        let key = s.predicted_us(4, &ap);
        assert_eq!(out.service_us.to_bits(), key.to_bits(), "matvec key {key} vs simulated");

        for kind in [JobKind::Matvec { n: 32 }, JobKind::Gauss { n: 16 }, JobKind::Simplex { n: 8 }]
        {
            let s = spec(kind, 4, 3, 0.0);
            assert!(
                s.predicted_us(4, &ap) <= s.predicted_us(4, &sp),
                "{}: all-port key must not exceed the single-port key",
                kind.name()
            );
        }
    }
}
