//! SCHED — multi-tenant subcube scheduling vs whole-machine FCFS.
//!
//! Replays one seeded arrival trace of the paper's three applications
//! (vector-matrix multiplies, Gaussian eliminations, simplex solves)
//! through three schedulers on the same `p = 1024` machine:
//!
//! * **fcfs-whole-machine** — the status quo before this crate: one job
//!   at a time, holding all `p` nodes exclusively;
//! * **subcube-fifo** — buddy-allocated disjoint subcubes, arrival
//!   order;
//! * **subcube-spjf** — subcubes plus shortest-predicted-job-first
//!   admission ranked by the `vmp::analysis` cost forms.
//!
//! The trace injects permanent node failures mid-run (tenants abort and
//! re-plan onto healthy subcubes) and gives ~10% of jobs a recoverable
//! transient-drop fault plan. Before any number is reported, **every**
//! scheduled job's result words are asserted bit-identical to a
//! standalone run of the same job — space-sharing may change when a job
//! runs, never what it computes. Results also land in
//! `BENCH_sched.json`, a golden file: every field is simulated, so CI
//! regenerates it and fails on any diff.

use serde::Serialize;
use vmp_hypercube::cost::CostModel;
use vmp_sched::{run_fcfs, run_trace, Metrics, Policy, SimConfig, SimOutcome, Trace, TraceParams};

use crate::common::write_artifact;
use crate::table::{fmt_us, Table};

/// What `BENCH_sched.json` holds: the trace shape plus one metrics
/// block per scheduler.
#[derive(Debug, Clone, Serialize)]
pub struct SchedBench {
    /// Machine size.
    pub p: usize,
    /// Trace seed.
    pub seed: u64,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Injected permanent node failures.
    pub failures: usize,
    /// One entry per scheduler.
    pub schedulers: Vec<Metrics>,
}

/// Assert the bit-identity contract for one scheduler run.
fn assert_bit_identical(trace: &Trace, out: &SimOutcome, cost: CostModel, label: &str) {
    for r in &out.records {
        let standalone = trace.jobs[r.id].run_standalone(cost);
        assert_eq!(
            r.words, standalone.words,
            "job {} ({}) under {label} diverged from its standalone run",
            r.id, r.kind
        );
    }
}

/// Replay the seeded trace for `params` through the three schedulers,
/// asserting bit-identity and that both subcube policies beat FCFS on
/// throughput and p99 wait.
fn measure(params: TraceParams) -> SchedBench {
    let seed = 1989u64;
    let cost = CostModel::cm2();
    let trace = Trace::generate(params, seed);

    let base = run_fcfs(&trace, params.dim, cost);
    let fifo = run_trace(&trace, SimConfig { dim: params.dim, cost, policy: Policy::Fifo });
    let spjf = run_trace(&trace, SimConfig { dim: params.dim, cost, policy: Policy::Spjf });

    for out in [&base, &fifo, &spjf] {
        assert_bit_identical(&trace, out, cost, &out.metrics.scheduler);
    }
    for out in [&fifo, &spjf] {
        assert!(
            out.metrics.throughput_jobs_per_s > base.metrics.throughput_jobs_per_s,
            "{} must beat FCFS throughput ({} vs {})",
            out.metrics.scheduler,
            out.metrics.throughput_jobs_per_s,
            base.metrics.throughput_jobs_per_s
        );
        assert!(
            out.metrics.p99_wait_us < base.metrics.p99_wait_us,
            "{} must beat FCFS p99 queueing latency ({} vs {})",
            out.metrics.scheduler,
            out.metrics.p99_wait_us,
            base.metrics.p99_wait_us
        );
    }

    SchedBench {
        p: 1usize << params.dim,
        seed,
        jobs: trace.jobs.len(),
        failures: trace.failures.len(),
        schedulers: vec![base.metrics, fifo.metrics, spjf.metrics],
    }
}

/// SCHED: subcube space-sharing vs exclusive FCFS on the full `p = 1024`
/// trace.
#[must_use]
pub fn sched() -> Table {
    let bench = measure(TraceParams::full());
    let written = write_artifact("BENCH_sched.json", &bench);

    let mut t = Table::new(
        "SCHED",
        "multi-tenant subcube scheduling vs whole-machine FCFS (p = 1024)",
        "load-balanced subcube embeddings let one machine serve many jobs: \
         space-sharing wins throughput and tail latency at identical result bits",
        &["scheduler", "done", "thru (jobs/s)", "p50 wait", "p99 wait", "util", "aborts", "degr"],
    );
    for m in &bench.schedulers {
        t.row(vec![
            m.scheduler.clone(),
            format!("{}/{}", m.completed, bench.jobs),
            format!("{:.1}", m.throughput_jobs_per_s),
            fmt_us(m.p50_wait_us),
            fmt_us(m.p99_wait_us),
            format!("{:.0}%", 100.0 * m.utilization),
            m.aborts.to_string(),
            m.degraded_runs.to_string(),
        ]);
    }
    t.note(format!(
        "trace: {} jobs, {} node failures, seed {}; every scheduled result \
         asserted bit-identical to its standalone run",
        bench.jobs, bench.failures, bench.seed
    ));
    t.note(written);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_trace_reports_three_schedulers_and_serialises() {
        let bench = measure(TraceParams::smoke());
        assert_eq!(bench.schedulers.len(), 3, "baseline + two policies");
        let json = serde_json::to_string_pretty(&bench).expect("serialisable bench");
        assert!(json.contains("subcube-spjf"));
        assert!(json.contains("fcfs-whole-machine"));
    }
}
