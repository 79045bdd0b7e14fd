//! The four workloads. Each op is one call into a library's public
//! entry point on a fresh seeded input; the traced variant makes the
//! same op from the entry point's public steps, with a span around each.

use vmp_algos::serial::{self, Dense, SimplexResult, SimplexStatus, StandardLp};
use vmp_algos::{gauss, matvec as mv, simplex, workloads as gen, GeError, GeStats};
use vmp_core::prelude::*;
use vmp_hypercube::{Counters, Cube};
use vmp_sched::{
    run_trace, JobKind, JobOutput, JobSpec, Policy, SimConfig, SimOutcome, Trace, TraceParams,
};

use crate::spans::Spans;
use crate::util::{mix, time_ns, Digest};

/// Pivot cap for the simplex solves (never reached on these LPs).
const SIMPLEX_MAX_ITER: usize = 10_000;

/// What one op did on the simulated clock, plus the counts the
/// per-layer report needs. Everything here is deterministic.
#[derive(Clone, Default)]
pub struct OpSim {
    pub sim_us: f64,
    pub counters: Counters,
    /// Completed jobs: 1 for a plain op, the trace's jobs for a replay.
    pub jobs: u64,
    /// Simulated response time (finish - arrival) of each job.
    pub responses_us: Vec<f64>,
    pub row_swaps: u64,
    pub pivots: u64,
    /// Processors x message supersteps the op drove.
    pub node_steps: f64,
    pub sched: Option<SchedStats>,
    /// Bit-identity digest of result, simulated clock and counters.
    pub digest: u64,
}

#[derive(Clone, Default)]
pub struct SchedStats {
    pub attempts: u64,
    pub aborts: u64,
    pub degraded: u64,
    pub waits_us: Vec<f64>,
    pub utilization: f64,
    /// Host ns of the standalone runs of every job (taken by the check
    /// or the traced drive).
    pub exec_ns: f64,
}

pub trait Workload: Sized {
    type Input;
    type Output;
    const NAME: &'static str;
    /// Ops every untraced run completes, whatever `--seconds` says
    /// (at least 100, for ten samples beyond p90). The simulated-clock
    /// metrics are taken over exactly these ops, so a seed always gives
    /// the same values; workloads whose ops vary more take more.
    const SIM_OPS: usize;

    /// Everything a run needs before its first op: machine, layout and
    /// any data fixed for the whole run.
    fn setup(seed: u64) -> Self;
    /// The input of one op, derived only from `op_seed`.
    fn input(&self, op_seed: u64) -> Self::Input;
    /// The op, as one call of the public entry point (timed).
    fn run(&mut self, input: &mut Self::Input) -> Self::Output;
    /// The same op from the entry point's public steps, one span each.
    fn run_traced(&mut self, input: &mut Self::Input, spans: &mut Spans) -> Self::Output;
    /// Compare the output against the oracle (untimed).
    fn check(&mut self, input: &Self::Input, out: &mut Self::Output) -> bool;
    /// The simulated-clock record of a checked output.
    fn sim(&self, out: &Self::Output) -> OpSim;
    /// Host ns of the plain single-thread oracle on the same input.
    fn serial_ns(&mut self, input: &Self::Input) -> f64;
    /// Machine dimension and cost model the layer probes run on.
    fn probe_machine(&self) -> (u32, CostModel);
    /// Matrix shape the `vmp` probes use.
    fn probe_shape(&self) -> MatShape;
    /// Jobs of this workload's shape for the `sched` probes, and the
    /// dimension of the machine they are scheduled on.
    fn probe_jobs(&self, seed: u64) -> (u32, Vec<JobSpec>);
}

fn counters_digest(d: &mut Digest, sim_us: f64, c: &Counters) {
    d.word(sim_us.to_bits()).bytes(&format!("{c:?}"));
}

fn single_job(sim_us: f64, counters: Counters, p: usize, digest: u64) -> OpSim {
    OpSim {
        sim_us,
        counters,
        jobs: 1,
        responses_us: vec![sim_us],
        node_steps: (p as u64 * counters.message_steps) as f64,
        digest,
        ..OpSim::default()
    }
}

// ---------------------------------------------------------------- gauss

/// `ge_solve_dist` on `pivot_stress_matrix` systems with `b = A x_true`.
pub struct Gauss {
    hc: Hypercube,
    grid: ProcGrid,
    n: usize,
}

pub struct GaussInput {
    aug: DistMatrix<f64>,
    a: Dense,
    b: Vec<f64>,
    x_true: Vec<f64>,
}

pub struct GaussOutput {
    result: Result<(Vec<f64>, GeStats), GeError>,
    sim_us: f64,
    counters: Counters,
}

impl Gauss {
    pub fn new(dim: u32, cost: CostModel, n: usize) -> Self {
        Gauss { hc: Hypercube::new(dim, cost), grid: ProcGrid::square(Cube::new(dim)), n }
    }
}

impl Workload for Gauss {
    type Input = GaussInput;
    type Output = GaussOutput;
    const NAME: &'static str = "gauss-p1024";
    const SIM_OPS: usize = 100;

    fn setup(_seed: u64) -> Self {
        Gauss::new(10, CostModel::cm2(), 64)
    }

    fn input(&self, op_seed: u64) -> GaussInput {
        let a = gen::pivot_stress_matrix(self.n, op_seed);
        let x_true = gen::random_vector(self.n, mix(op_seed));
        let b = a.matvec(&x_true);
        let aug = gauss::build_augmented(&a, &b, self.grid.clone());
        GaussInput { aug, a, b, x_true }
    }

    fn run(&mut self, input: &mut GaussInput) -> GaussOutput {
        self.hc.reset();
        let result = gauss::ge_solve_dist(&mut self.hc, &mut input.aug);
        GaussOutput { result, sim_us: self.hc.elapsed_us(), counters: *self.hc.counters() }
    }

    fn run_traced(&mut self, input: &mut GaussInput, spans: &mut Spans) -> GaussOutput {
        let hc = &mut self.hc;
        hc.reset();
        let root = spans.open("ge_solve_dist", 0.0);
        let mut stats = GeStats::default();
        let mut eliminated = Ok(());
        for k in 0..self.n {
            let s = spans.open("forward_eliminate_range", hc.elapsed_us());
            eliminated = gauss::forward_eliminate_range(hc, &mut input.aug, k, k + 1, &mut stats);
            spans.close(s, hc.elapsed_us());
            if eliminated.is_err() {
                break;
            }
        }
        let result = eliminated.map(|()| {
            let s = spans.open("back_substitute", hc.elapsed_us());
            let x = gauss::back_substitute(hc, &input.aug);
            spans.close(s, hc.elapsed_us());
            (x, stats)
        });
        spans.close(root, hc.elapsed_us());
        GaussOutput { result, sim_us: hc.elapsed_us(), counters: *hc.counters() }
    }

    fn check(&mut self, input: &GaussInput, out: &mut GaussOutput) -> bool {
        match &out.result {
            Ok((x, _)) => x.iter().zip(&input.x_true).all(|(a, b)| (a - b).abs() < 1e-8),
            Err(_) => false,
        }
    }

    fn sim(&self, out: &GaussOutput) -> OpSim {
        let mut d = Digest::new();
        let swaps = match &out.result {
            Ok((x, stats)) => {
                d.words(x.iter().map(|v| v.to_bits())).word(stats.row_swaps as u64);
                stats.row_swaps as u64
            }
            Err(_) => {
                d.word(u64::MAX);
                0
            }
        };
        counters_digest(&mut d, out.sim_us, &out.counters);
        let mut sim = single_job(out.sim_us, out.counters, self.hc.p(), d.finish());
        sim.row_swaps = swaps;
        sim
    }

    fn serial_ns(&mut self, input: &GaussInput) -> f64 {
        time_ns(|| serial::lu_solve(&input.a, &input.b)).1
    }

    fn probe_machine(&self) -> (u32, CostModel) {
        (self.hc.dim(), *self.hc.cost())
    }

    fn probe_shape(&self) -> MatShape {
        MatShape::new(self.n, self.n + 1)
    }

    fn probe_jobs(&self, seed: u64) -> (u32, Vec<JobSpec>) {
        single(JobKind::Gauss { n: self.n }, self.hc.dim(), seed)
    }
}

/// One fault-free job of `kind` on the whole `order`-dimensional machine.
fn single(kind: JobKind, order: u32, seed: u64) -> (u32, Vec<JobSpec>) {
    (order, vec![JobSpec { id: 0, kind, order, seed, arrival_us: 0.0, drop_rate: 0.0 }])
}

// -------------------------------------------------------------- simplex

/// `solve_parallel` (Dantzig rule) on bounded random dense LPs.
pub struct Simplex {
    hc: Hypercube,
    grid: ProcGrid,
    m: usize,
    n: usize,
}

pub struct SimplexOutput {
    result: SimplexResult,
    sim_us: f64,
    counters: Counters,
}

impl Simplex {
    pub fn new(dim: u32, cost: CostModel, m: usize, n: usize) -> Self {
        Simplex { hc: Hypercube::new(dim, cost), grid: ProcGrid::square(Cube::new(dim)), m, n }
    }
}

fn same_result(a: &SimplexResult, b: &SimplexResult) -> bool {
    a.status == b.status
        && a.iterations == b.iterations
        && a.objective.to_bits() == b.objective.to_bits()
        && a.x.len() == b.x.len()
        && a.x.iter().zip(&b.x).all(|(u, v)| u.to_bits() == v.to_bits())
}

impl Workload for Simplex {
    type Input = StandardLp;
    type Output = SimplexOutput;
    const NAME: &'static str = "simplex-p64";
    const SIM_OPS: usize = 300;

    fn setup(_seed: u64) -> Self {
        Simplex::new(6, CostModel::cm2(), 256, 256)
    }

    fn input(&self, op_seed: u64) -> StandardLp {
        gen::random_dense_lp(self.m, self.n, op_seed)
    }

    fn run(&mut self, lp: &mut StandardLp) -> SimplexOutput {
        self.hc.reset();
        let result = simplex::solve_parallel(&mut self.hc, lp, self.grid.clone(), SIMPLEX_MAX_ITER);
        SimplexOutput { result, sim_us: self.hc.elapsed_us(), counters: *self.hc.counters() }
    }

    fn run_traced(&mut self, lp: &mut StandardLp, spans: &mut Spans) -> SimplexOutput {
        let hc = &mut self.hc;
        let (m, n) = (lp.m(), lp.n());
        let rhs_col = n + m;
        hc.reset();
        let root = spans.open("solve_parallel", 0.0);
        let s = spans.open("build_tableau", 0.0);
        let mut t = simplex::build_tableau(lp, self.grid.clone());
        spans.close(s, hc.elapsed_us());
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut end = (SimplexStatus::MaxIterations, SIMPLEX_MAX_ITER);
        for it in 0..SIMPLEX_MAX_ITER {
            let s = spans.open("pivot_once", hc.elapsed_us());
            let outcome = simplex::pivot_once(
                hc,
                &mut t,
                &mut basis,
                m,
                m,
                move |j| j < rhs_col,
                serial::simplex::PivotRule::Dantzig,
            );
            spans.close(s, hc.elapsed_us());
            match outcome {
                simplex::PivotOutcome::Optimal => {
                    end = (SimplexStatus::Optimal, it);
                    break;
                }
                simplex::PivotOutcome::Unbounded => {
                    end = (SimplexStatus::Unbounded, it);
                    break;
                }
                simplex::PivotOutcome::Pivoted(..) => {}
            }
        }
        spans.close(root, hc.elapsed_us());
        let mut x = vec![0.0; n];
        for (i, &var) in basis.iter().enumerate() {
            if var < n {
                x[var] = t.get(i, rhs_col);
            }
        }
        let result =
            SimplexResult { status: end.0, objective: t.get(m, rhs_col), x, iterations: end.1 };
        SimplexOutput { result, sim_us: hc.elapsed_us(), counters: *hc.counters() }
    }

    fn check(&mut self, lp: &StandardLp, out: &mut SimplexOutput) -> bool {
        let oracle = serial::simplex_solve(lp, SIMPLEX_MAX_ITER);
        out.result.status == SimplexStatus::Optimal && same_result(&out.result, &oracle)
    }

    fn sim(&self, out: &SimplexOutput) -> OpSim {
        let r = &out.result;
        let mut d = Digest::new();
        d.word(r.status as u64).word(r.iterations as u64).word(r.objective.to_bits());
        d.words(r.x.iter().map(|v| v.to_bits()));
        counters_digest(&mut d, out.sim_us, &out.counters);
        let mut sim = single_job(out.sim_us, out.counters, self.hc.p(), d.finish());
        sim.pivots = r.iterations as u64;
        sim
    }

    fn serial_ns(&mut self, lp: &StandardLp) -> f64 {
        time_ns(|| serial::simplex_solve(lp, SIMPLEX_MAX_ITER)).1
    }

    fn probe_machine(&self) -> (u32, CostModel) {
        (self.hc.dim(), *self.hc.cost())
    }

    fn probe_shape(&self) -> MatShape {
        MatShape::new(self.m + 1, self.n + self.m + 1)
    }

    fn probe_jobs(&self, seed: u64) -> (u32, Vec<JobSpec>) {
        single(JobKind::Simplex { n: self.n }, self.hc.dim(), seed)
    }
}

// --------------------------------------------------------------- matvec

/// `matvec` with one seeded integer-valued matrix and a fresh `x` per op.
pub struct Matvec {
    hc: Hypercube,
    grid: ProcGrid,
    n: usize,
    a: DistMatrix<f64>,
    /// Host copy of the entries for the untimed check (one byte each, so
    /// the check adds 4 MiB, not 32 MiB, to `peak_rss_mib`).
    entries: Vec<i8>,
    /// The same matrix as the `serial` oracle's `Dense`, built on the
    /// traced run's first `serial_ns` call (that run reports no memory).
    dense: Option<Dense>,
}

pub struct MatvecInput {
    x: DistVector<f64>,
    host_x: Vec<f64>,
}

pub struct MatvecOutput {
    y: DistVector<f64>,
    sim_us: f64,
    counters: Counters,
}

/// A small integer in `-8..=8` from a seed: products and sums of these
/// stay exact in `f64`, so every fold order gives the same bits.
fn small_int(seed: u64) -> i8 {
    (mix(seed) % 17) as i8 - 8
}

impl Matvec {
    /// `A x` from the byte copy. The entries and x are small integers, so
    /// this equals `Dense::matvec` bit for bit in any fold order.
    fn oracle(&self, x: &[f64]) -> Vec<f64> {
        let n = self.n;
        (0..n)
            .map(|i| {
                self.entries[i * n..(i + 1) * n]
                    .iter()
                    .zip(x)
                    .map(|(&a, &x)| f64::from(a) * x)
                    .sum()
            })
            .collect()
    }
}

impl Workload for Matvec {
    type Input = MatvecInput;
    type Output = MatvecOutput;
    const NAME: &'static str = "matvec-p64";
    const SIM_OPS: usize = 100;

    fn setup(seed: u64) -> Self {
        let (dim, n) = (6, 2048);
        let grid = ProcGrid::square(Cube::new(dim));
        let base = mix(seed);
        let entries: Vec<i8> = (0..n * n).map(|k| small_int(base ^ k as u64)).collect();
        let a =
            DistMatrix::from_fn(MatrixLayout::cyclic(MatShape::new(n, n), grid.clone()), |i, j| {
                f64::from(entries[i * n + j])
            });
        let hc = Hypercube::new(dim, CostModel::cm2_allport());
        Matvec { hc, grid, n, a, entries, dense: None }
    }

    fn input(&self, op_seed: u64) -> MatvecInput {
        let host_x: Vec<f64> =
            (0..self.n).map(|j| f64::from(small_int(op_seed ^ ((j as u64) << 32)))).collect();
        let layout = VectorLayout::aligned(
            self.n,
            self.grid.clone(),
            Axis::Row,
            Placement::Replicated,
            Dist::Cyclic,
        );
        MatvecInput { x: DistVector::from_slice(layout, &host_x), host_x }
    }

    fn run(&mut self, input: &mut MatvecInput) -> MatvecOutput {
        self.hc.reset();
        let y = mv::matvec(&mut self.hc, &self.a, &input.x);
        MatvecOutput { y, sim_us: self.hc.elapsed_us(), counters: *self.hc.counters() }
    }

    fn run_traced(&mut self, input: &mut MatvecInput, spans: &mut Spans) -> MatvecOutput {
        self.hc.reset();
        let s = spans.open("matvec", 0.0);
        let y = mv::matvec(&mut self.hc, &self.a, &input.x);
        spans.close(s, self.hc.elapsed_us());
        MatvecOutput { y, sim_us: self.hc.elapsed_us(), counters: *self.hc.counters() }
    }

    fn check(&mut self, input: &MatvecInput, out: &mut MatvecOutput) -> bool {
        let y = out.y.to_dense();
        let want = self.oracle(&input.host_x);
        y.len() == want.len() && y.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn sim(&self, out: &MatvecOutput) -> OpSim {
        let mut d = Digest::new();
        d.words(out.y.to_dense().iter().map(|v| v.to_bits()));
        counters_digest(&mut d, out.sim_us, &out.counters);
        single_job(out.sim_us, out.counters, self.hc.p(), d.finish())
    }

    fn serial_ns(&mut self, input: &MatvecInput) -> f64 {
        let (n, entries) = (self.n, &self.entries);
        let dense = self
            .dense
            .get_or_insert_with(|| Dense::from_fn(n, n, |i, j| f64::from(entries[i * n + j])));
        time_ns(|| dense.matvec(&input.host_x)).1
    }

    fn probe_machine(&self) -> (u32, CostModel) {
        (self.hc.dim(), *self.hc.cost())
    }

    fn probe_shape(&self) -> MatShape {
        MatShape::new(self.n, self.n)
    }

    fn probe_jobs(&self, seed: u64) -> (u32, Vec<JobSpec>) {
        single(JobKind::Matvec { n: self.n }, self.hc.dim(), seed)
    }
}

// ---------------------------------------------------------------- sched

/// `run_trace` under SPJF on p = 1024 with a fresh full-shaped trace per op.
pub struct Sched {
    cfg: SimConfig,
}

pub struct SchedOutput {
    outcome: SimOutcome,
    /// Each job's standalone run and its host ns, by job id (filled by
    /// the traced drive or by the check).
    standalone: Vec<(JobOutput, f64)>,
}

/// The order most sched jobs run on, and the side of its commonest
/// (matvec) job: the shape the layer probes use for this workload.
const SCHED_PROBE_ORDER: u32 = 6;
const SCHED_PROBE_N: usize = 96;

impl Workload for Sched {
    type Input = Trace;
    type Output = SchedOutput;
    const NAME: &'static str = "sched-p1024";
    const SIM_OPS: usize = 100;

    fn setup(_seed: u64) -> Self {
        Sched { cfg: SimConfig { dim: 10, cost: CostModel::cm2(), policy: Policy::Spjf } }
    }

    fn input(&self, op_seed: u64) -> Trace {
        Trace::generate(TraceParams::full(), op_seed)
    }

    fn run(&mut self, trace: &mut Trace) -> SchedOutput {
        SchedOutput { outcome: run_trace(trace, self.cfg), standalone: Vec::new() }
    }

    fn run_traced(&mut self, trace: &mut Trace, spans: &mut Spans) -> SchedOutput {
        let s = spans.open("run_trace", 0.0);
        let outcome = run_trace(trace, self.cfg);
        let mut sim = outcome.metrics.makespan_us;
        spans.close(s, sim);
        let mut standalone = Vec::with_capacity(trace.jobs.len());
        for spec in &trace.jobs {
            let s = spans.open("run_standalone", sim);
            let (out, ns) = time_ns(|| spec.run_standalone(self.cfg.cost));
            sim += out.service_us;
            spans.close(s, sim);
            standalone.push((out, ns));
        }
        SchedOutput { outcome, standalone }
    }

    fn check(&mut self, trace: &Trace, out: &mut SchedOutput) -> bool {
        if out.standalone.is_empty() {
            out.standalone = trace
                .jobs
                .iter()
                .map(|spec| time_ns(|| spec.run_standalone(self.cfg.cost)))
                .collect();
        }
        let m = &out.outcome.metrics;
        m.skipped == 0
            && out.outcome.records.len() == trace.jobs.len()
            && out.outcome.records.iter().all(|r| {
                trace.jobs.get(r.id).is_some_and(|spec| spec.id == r.id)
                    && out.standalone[r.id].0.words == r.words
            })
    }

    fn sim(&self, out: &SchedOutput) -> OpSim {
        let o = &out.outcome;
        let mut d = Digest::new();
        let (mut counters, mut node_steps, mut exec_ns) = (Counters::default(), 0.0, 0.0);
        for r in &o.records {
            d.word(r.id as u64).word(r.start_us.to_bits()).word(r.finish_us.to_bits());
            d.word(u64::from(r.attempts))
                .word(u64::from(r.degraded))
                .words(r.words.iter().copied());
            let (job, ns) = &out.standalone[r.id];
            add_counters(&mut counters, &job.counters);
            node_steps += ((1u64 << r.order) * job.counters.message_steps) as f64;
            exec_ns += ns;
        }
        counters_digest(&mut d, o.metrics.makespan_us, &counters);
        OpSim {
            sim_us: o.metrics.makespan_us,
            counters,
            jobs: o.records.len() as u64,
            responses_us: o.records.iter().map(|r| r.finish_us - r.arrival_us).collect(),
            node_steps,
            sched: Some(SchedStats {
                attempts: o.records.iter().map(|r| u64::from(r.attempts)).sum(),
                aborts: u64::from(o.metrics.aborts),
                degraded: o.metrics.degraded_runs as u64,
                waits_us: o.records.iter().map(|r| r.wait_us).collect(),
                utilization: o.metrics.utilization,
                exec_ns,
            }),
            digest: d.finish(),
            ..OpSim::default()
        }
    }

    fn serial_ns(&mut self, trace: &Trace) -> f64 {
        trace.jobs.iter().map(serial_job_ns).sum()
    }

    fn probe_machine(&self) -> (u32, CostModel) {
        (SCHED_PROBE_ORDER, self.cfg.cost)
    }

    fn probe_shape(&self) -> MatShape {
        MatShape::new(SCHED_PROBE_N, SCHED_PROBE_N)
    }

    fn probe_jobs(&self, seed: u64) -> (u32, Vec<JobSpec>) {
        (self.cfg.dim, Trace::generate(TraceParams::full(), seed).jobs)
    }
}

/// Add one job's counters to a replay's total (`max_channel_load` is a
/// maximum, every other counter a sum).
fn add_counters(total: &mut Counters, c: &Counters) {
    *total = Counters {
        message_steps: total.message_steps + c.message_steps,
        allport_steps: total.allport_steps + c.allport_steps,
        elements_transferred: total.elements_transferred + c.elements_transferred,
        max_channel_load: total.max_channel_load.max(c.max_channel_load),
        flops: total.flops + c.flops,
        local_moves: total.local_moves + c.local_moves,
        router_elements: total.router_elements + c.router_elements,
        router_cycles: total.router_cycles + c.router_cycles,
        transient_drops: total.transient_drops + c.transient_drops,
        retries: total.retries + c.retries,
        reroutes: total.reroutes + c.reroutes,
        detour_hops: total.detour_hops + c.detour_hops,
        node_remaps: total.node_remaps + c.node_remaps,
        migrated_elements: total.migrated_elements + c.migrated_elements,
    };
}

/// Host ns of the serial oracle for one scheduled job, on the inputs
/// the job itself generates from its seed.
fn serial_job_ns(spec: &JobSpec) -> f64 {
    match spec.kind {
        JobKind::Matvec { n } => {
            let a = gen::random_matrix(n, n, spec.seed);
            let x = gen::random_vector(n, spec.seed ^ 0x9e37_79b9);
            time_ns(|| a.matvec(&x)).1
        }
        JobKind::Gauss { n } => {
            let (a, b, _) = gen::diag_dominant_system(n, spec.seed);
            time_ns(|| serial::lu_solve(&a, &b)).1
        }
        JobKind::Simplex { n } => {
            let lp = gen::random_dense_lp(n, n, spec.seed);
            time_ns(|| serial::simplex_solve(&lp, 50 * n.max(1))).1
        }
    }
}
