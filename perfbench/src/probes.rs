//! Layer probes: host time of calls into each layer's public functions,
//! made at a workload's own shape and machine after its traced drive.

use std::hint::black_box;
use std::time::Duration;

use vmp_core::prelude::*;
use vmp_hypercube::collective::{allreduce_slab, broadcast_slab};
use vmp_hypercube::{Cube, NodeSlab};
use vmp_sched::{run_trace, BuddyAllocator, JobSpec, Policy, SimConfig, Trace};

use crate::spans::Spans;
use crate::util::{median, median_ns, percentile, time_ns};
use crate::workloads::{Gauss, Simplex, Workload};
use crate::Metrics;

const BUDGET: Duration = Duration::from_millis(150);

/// Every probe of the `vmp` layer: host µs per call (median) and
/// simulated µs per call (exact) of the primitives and local kernels
/// the workloads use, on a `shape` matrix distributed cyclically.
pub fn vmp(dim: u32, cost: CostModel, shape: MatShape, out: &mut Metrics) {
    let layout = MatrixLayout::cyclic(shape, ProcGrid::square(Cube::new(dim)));
    let value = |i: usize, j: usize| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5;
    let from_fn_ns = median_ns(3, BUDGET, 1, || {
        black_box(DistMatrix::from_fn(layout.clone(), value));
    });
    let mut m = DistMatrix::from_fn(layout, value);
    let mut hc = Hypercube::new(dim, cost);
    let (r, c) = (shape.rows / 2, shape.cols / 2);
    let row = extract_replicated(&mut hc, &m, Axis::Row, r);
    let col = extract_replicated(&mut hc, &m, Axis::Col, c);
    let col_concentrated = extract(&mut hc, &m, Axis::Col, c);

    let mut probe = |name: &str, f: &mut dyn FnMut(&mut Hypercube)| {
        hc.reset();
        f(&mut hc);
        let sim_us = hc.elapsed_us();
        let host_ns = median_ns(3, BUDGET, 1, || f(&mut hc));
        out.push(format!("vmp.{name}.host_us"), host_ns / 1e3, "us");
        out.push(format!("vmp.{name}.sim_us"), sim_us, "sim_us");
    };
    probe("extract", &mut |hc| {
        black_box(extract(hc, &m, Axis::Row, r));
    });
    probe("extract_replicated", &mut |hc| {
        black_box(extract_replicated(hc, &m, Axis::Row, r));
    });
    probe("reduce", &mut |hc| {
        black_box(reduce(hc, &m, Axis::Row, Sum));
    });
    probe("reduce_vec", &mut |hc| {
        black_box(col_concentrated.reduce_lifted(hc, ArgMaxAbs, |i, v| Loc::new(v, i)));
    });
    probe("zip_axis", &mut |hc| {
        black_box(m.zip_axis(hc, Axis::Row, &row, |_, _, a, x| a * x));
    });
    probe("insert", &mut |hc| insert(hc, &mut m, Axis::Row, r, &row));
    probe("rank1_update", &mut |hc| {
        m.rank1_update(hc, &col, &row, |_, _, a, c, r| 0.5 * a + 0.25 * c * r);
    });
    out.push("vmp.from_fn.host_us".into(), from_fn_ns / 1e3, "us");
}

/// Whole-cube broadcast and all-reduce on the slab data plane, with one
/// row chunk of `shape` per node as the payload.
pub fn hypercube(dim: u32, cost: CostModel, shape: MatShape, out: &mut Metrics) {
    let grid = ProcGrid::square(Cube::new(dim));
    let len = shape.cols.div_ceil(grid.pc());
    let dims: Vec<u32> = (0..dim).collect();
    let mut hc = Hypercube::new(dim, cost);
    let mut slab = NodeSlab::filled(&vec![len; grid.p()], 1.0f64);
    let ns = median_ns(3, BUDGET, 1, || broadcast_slab(&mut hc, &mut slab, &dims, 0));
    out.push("hypercube.broadcast.host_us".into(), ns / 1e3, "us");
    let ns = median_ns(3, BUDGET, 1, || allreduce_slab(&mut hc, &mut slab, &dims, f64::max));
    out.push("hypercube.allreduce.host_us".into(), ns / 1e3, "us");
}

pub fn layout(dim: u32, shape: MatShape, out: &mut Metrics) {
    let grid = ProcGrid::square(Cube::new(dim));
    let ns = median_ns(5, BUDGET, 100, || {
        black_box(MatrixLayout::cyclic(shape, grid.clone()));
    });
    out.push("layout.matrix_cyclic.host_us".into(), ns / 1e3, "us");
}

/// SPJF prediction per job and one buddy allocate + release, on the
/// `dim`-dimensional machine the jobs are scheduled on.
pub fn sched(dim: u32, cost: CostModel, jobs: &[JobSpec], out: &mut Metrics) {
    let ns = median_ns(5, BUDGET, 10, || {
        for j in jobs {
            black_box(j.predicted_us(j.order, &cost));
        }
    });
    out.push("sched.predict.host_us".into(), ns / jobs.len() as f64 / 1e3, "us");
    let mut alloc = BuddyAllocator::new(dim);
    let ns = median_ns(5, BUDGET, 100, || {
        for j in jobs {
            let sub = alloc.allocate(j.order).expect("a fresh allocator fits any one job");
            alloc.release(black_box(sub));
        }
    });
    out.push("sched.alloc.host_ns".into(), ns / jobs.len() as f64, "ns");
}

/// The scheduler metrics of a workload that runs one job at a time:
/// the workload's own job replayed alone through `run_trace`.
pub fn single_job_schedule(dim: u32, cost: CostModel, jobs: Vec<JobSpec>, out: &mut Metrics) {
    let trace = Trace { jobs, failures: Vec::new() };
    let cfg = SimConfig { dim, cost, policy: Policy::Spjf };
    let (mut exec, mut self_frac) = (Vec::new(), Vec::new());
    let mut outcome = None;
    for _ in 0..3 {
        let (o, replay_ns) = time_ns(|| run_trace(&trace, cfg));
        let exec_ns: f64 = trace.jobs.iter().map(|j| time_ns(|| j.run_standalone(cost)).1).sum();
        exec.push(exec_ns);
        self_frac.push(1.0 - exec_ns / replay_ns);
        outcome = Some(o);
    }
    let o = outcome.expect("three replays ran");
    let attempts: u32 = o.records.iter().map(|r| r.attempts).sum();
    let waits: Vec<f64> = o.records.iter().map(|r| r.wait_us).collect();
    out.push("sched.exec_ms".into(), median(&exec) / 1e6, "ms");
    out.push("sched.self_frac".into(), median(&self_frac), "ratio");
    out.push(
        "sched.attempts_per_job".into(),
        f64::from(attempts) / o.records.len() as f64,
        "count",
    );
    out.push("sched.aborts".into(), f64::from(o.metrics.aborts), "count");
    out.push("sched.degraded_runs".into(), o.metrics.degraded_runs as f64, "count");
    out.push("sched.sim_wait_ms.p99".into(), percentile(&waits, 0.99) / 1e3, "sim_ms");
    out.push("sched.sim_utilization".into(), o.metrics.utilization, "ratio");
}

/// One traced elimination of a 64 x 64 `pivot_stress_matrix` system:
/// per-step host µs (median), back-substitution host µs, row swaps.
pub fn ge(dim: u32, cost: CostModel, seed: u64) -> (f64, f64, f64) {
    let mut g = Gauss::new(dim, cost, 64);
    let mut spans = Spans::new();
    let mut input = g.input(seed);
    let done = g.run_traced(&mut input, &mut spans);
    let swaps = g.sim(&done).row_swaps as f64;
    (
        median(&spans.host_us("forward_eliminate_range")),
        median(&spans.host_us("back_substitute")),
        swaps,
    )
}

/// One traced simplex solve of a 64 x 64 random dense LP: per-pivot
/// host µs (median) and pivots.
pub fn simplex(dim: u32, cost: CostModel, seed: u64) -> (f64, f64) {
    let mut s = Simplex::new(dim, cost, 64, 64);
    let mut spans = Spans::new();
    let mut input = s.input(seed);
    let done = s.run_traced(&mut input, &mut spans);
    (median(&spans.host_us("pivot_once")), s.sim(&done).pivots as f64)
}
