//! The deterministic discrete-event scheduler.
//!
//! One simulated `2^dim`-node machine is space-shared among the jobs of
//! a [`Trace`]: each admitted job receives a disjoint aligned subcube
//! from the buddy allocator and runs there exactly as it would on a
//! standalone machine of its order (see [`crate::subcube`] for why the
//! bits match). The simulation is a classic event loop — arrivals,
//! completions, and node failures on one min-heap ordered by
//! `(time, sequence)` with `f64::total_cmp`, so a fixed trace always
//! replays the same schedule.
//!
//! **Policies.** [`Policy::Fifo`] admits strictly in arrival order
//! (head-of-line blocking and all); [`Policy::Spjf`] admits the queued
//! job with the shortest predicted service time
//! ([`JobSpec::predicted_us`](crate::job::JobSpec::predicted_us), the
//! `vmp::analysis` closed forms) that
//! currently fits — a cheap approximation of shortest-job-first that
//! needs no oracle, only the cost model.
//!
//! **Faults.** A [`FailureEvent`](crate::FailureEvent) quarantines a node in the allocator.
//! If the node was inside a running job's subcube, that job is aborted
//! (its in-flight completion goes stale), its subcube is released —
//! shedding the dead leaf — and the job returns to the head of the
//! queue to be re-planned onto a healthy subcube. When a job's order
//! can never again be satisfied by a healthy block, the allocator
//! falls back to a single-casualty block and the job runs under
//! graceful degradation — bit-identical, just slower.
//!
//! **Baseline.** [`run_fcfs`] is the status quo this crate replaces:
//! jobs run one at a time, each holding the *whole* machine
//! exclusively while executing on its requested order — no
//! space-sharing, so service times are identical to standalone runs
//! and only the scheduling differs.

use crate::alloc::{BuddyAllocator, DeadImpact};
use crate::job::JobOutput;
use crate::subcube::Subcube;
use crate::trace::Trace;
use serde::Serialize;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use vmp_hypercube::cost::CostModel;

/// Admission order for queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Strict arrival order; the head blocks until it fits.
    Fifo,
    /// Shortest-predicted-job-first among jobs that currently fit,
    /// ranked by the `vmp::analysis` cost predictions.
    Spjf,
}

impl Policy {
    /// Label used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "subcube-fifo",
            Policy::Spjf => "subcube-spjf",
        }
    }
}

/// Everything that happened to one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Trace id of the job.
    pub id: usize,
    /// Application name.
    pub kind: &'static str,
    /// Requested subcube order.
    pub order: u32,
    /// Arrival time, microseconds.
    pub arrival_us: f64,
    /// Start of the attempt that completed, microseconds.
    pub start_us: f64,
    /// Completion time, microseconds.
    pub finish_us: f64,
    /// Service time of the completing attempt, microseconds.
    pub service_us: f64,
    /// Queueing latency: `start_us - arrival_us`.
    pub wait_us: f64,
    /// Execution attempts (> 1 means the job was aborted by a failure).
    pub attempts: u32,
    /// Whether the completing attempt ran in degraded mode.
    pub degraded: bool,
    /// Canonical result words (the bit-identity contract).
    pub words: Vec<u64>,
}

/// Aggregate schedule quality, serialised into `BENCH_sched.json`.
#[derive(Debug, Clone, Serialize)]
pub struct Metrics {
    /// Scheduler label (`fcfs-whole-machine`, `subcube-fifo`, ...).
    pub scheduler: String,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs permanently unschedulable after failures (never completed).
    pub skipped: usize,
    /// Failure-triggered aborts (each re-queues the job).
    pub aborts: u32,
    /// Completions that ran in degraded mode.
    pub degraded_runs: usize,
    /// Last completion time, microseconds.
    pub makespan_us: f64,
    /// Jobs per simulated second.
    pub throughput_jobs_per_s: f64,
    /// Median queueing latency, microseconds.
    pub p50_wait_us: f64,
    /// 99th-percentile queueing latency (nearest rank), microseconds.
    pub p99_wait_us: f64,
    /// Node-time actually rented to jobs over `p x makespan`.
    pub utilization: f64,
}

/// One scheduler run over a trace: per-job records plus the aggregate.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-job fates, in trace id order.
    pub records: Vec<JobRecord>,
    /// The aggregate.
    pub metrics: Metrics,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Machine dimension (`p = 2^dim`).
    pub dim: u32,
    /// Cost model for every job machine.
    pub cost: CostModel,
    /// Admission policy.
    pub policy: Policy,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum What {
    Arrival(usize),
    Failure(usize),
    Done { job: usize, attempt: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    what: What,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time).is_eq() && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

struct Running {
    job: usize,
    sub: Subcube,
    degraded: bool,
    start_us: f64,
    output: JobOutput,
}

struct Sim<'t> {
    trace: &'t Trace,
    cfg: SimConfig,
    alloc: BuddyAllocator,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    queue: VecDeque<usize>,
    running: Vec<Running>,
    attempts: Vec<u32>,
    records: Vec<Option<JobRecord>>,
    skipped: Vec<usize>,
    aborts: u32,
    rented_node_us: f64,
}

impl<'t> Sim<'t> {
    fn new(trace: &'t Trace, cfg: SimConfig) -> Self {
        let n = trace.jobs.len();
        let mut sim = Sim {
            trace,
            cfg,
            alloc: BuddyAllocator::new(cfg.dim),
            heap: BinaryHeap::new(),
            seq: 0,
            queue: VecDeque::new(),
            running: Vec::new(),
            attempts: vec![0; n],
            records: (0..n).map(|_| None).collect(),
            skipped: Vec::new(),
            aborts: 0,
            rented_node_us: 0.0,
        };
        for (i, j) in trace.jobs.iter().enumerate() {
            assert!(
                j.order <= cfg.dim,
                "job {} wants order {} on a dim-{} machine",
                j.id,
                j.order,
                cfg.dim
            );
            sim.push(j.arrival_us, What::Arrival(i));
        }
        for (k, f) in trace.failures.iter().enumerate() {
            sim.push(f.at_us, What::Failure(k));
        }
        sim
    }

    fn push(&mut self, time: f64, what: What) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq, what }));
    }

    fn run(mut self) -> SimOutcome {
        while let Some(Reverse(ev)) = self.heap.pop() {
            let now = ev.time;
            match ev.what {
                What::Arrival(i) => {
                    self.queue.push_back(i);
                    self.try_admit(now);
                }
                What::Failure(k) => {
                    self.on_failure(now, self.trace.failures[k].node);
                }
                What::Done { job, attempt } => {
                    if attempt == self.attempts[job] {
                        self.on_done(now, job);
                    }
                    // else: a stale completion of an aborted attempt.
                }
            }
        }
        self.finish()
    }

    fn on_failure(&mut self, now: f64, node: usize) {
        match self.alloc.mark_dead(node) {
            DeadImpact::Allocated(sub) => {
                // Abort the tenant: its completion goes stale, its block
                // (minus the dead leaf) returns to the pool, and the job
                // rejoins the queue head for re-planning.
                let at = self
                    .running
                    .iter()
                    .position(|r| r.sub == sub)
                    .unwrap_or_else(|| panic!("allocated {sub:?} has no running tenant"));
                let r = self.running.swap_remove(at);
                self.attempts[r.job] += 1;
                self.aborts += 1;
                self.alloc.release(sub);
                self.queue.push_front(r.job);
                self.try_admit(now);
            }
            DeadImpact::Free | DeadImpact::AlreadyDead => {}
        }
    }

    fn on_done(&mut self, now: f64, job: usize) {
        let at = self
            .running
            .iter()
            .position(|r| r.job == job)
            .unwrap_or_else(|| panic!("completed job {job} is not running"));
        let r = self.running.swap_remove(at);
        self.alloc.release(r.sub);
        let spec = &self.trace.jobs[job];
        self.rented_node_us += r.sub.len() as f64 * r.output.service_us;
        self.records[job] = Some(JobRecord {
            id: spec.id,
            kind: spec.kind.name(),
            order: spec.order,
            arrival_us: spec.arrival_us,
            start_us: r.start_us,
            finish_us: now,
            service_us: r.output.service_us,
            wait_us: r.start_us - spec.arrival_us,
            attempts: self.attempts[job] + 1,
            degraded: r.degraded,
            words: r.output.words,
        });
        self.try_admit(now);
    }

    /// Admit every queued job the policy and the pool allow right now.
    fn try_admit(&mut self, now: f64) {
        match self.cfg.policy {
            Policy::Fifo => self.admit_fifo(now),
            Policy::Spjf => self.admit_spjf(now),
        }
    }

    fn admit_fifo(&mut self, now: f64) {
        while let Some(&job) = self.queue.front() {
            if self.admit_one(now, job) {
                self.queue.pop_front();
            } else if self.permanently_unschedulable(job) {
                self.queue.pop_front();
                self.skipped.push(job);
            } else {
                break; // head-of-line blocking: FIFO waits.
            }
        }
    }

    fn admit_spjf(&mut self, now: f64) {
        loop {
            // Rank the queue by predicted service time (ties by queue
            // position, i.e. arrival order) and admit the shortest job
            // that fits; repeat until a pass admits nothing.
            let mut ranked: Vec<(f64, usize)> = self
                .queue
                .iter()
                .map(|&job| {
                    let spec = &self.trace.jobs[job];
                    (spec.predicted_us(spec.order, &self.cfg.cost), job)
                })
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut admitted = None;
            for &(_, job) in &ranked {
                if self.admit_one(now, job) {
                    admitted = Some(job);
                    break;
                }
                if self.permanently_unschedulable(job) {
                    self.queue.retain(|&q| q != job);
                    self.skipped.push(job);
                }
            }
            match admitted {
                Some(job) => self.queue.retain(|&q| q != job),
                None => break,
            }
        }
    }

    /// Try to start `job` right now. Healthy block first; a degraded
    /// single-casualty block only when no healthy block of the order
    /// can ever exist again.
    fn admit_one(&mut self, now: f64, job: usize) -> bool {
        let order = self.trace.jobs[job].order;
        if let Some(sub) = self.alloc.allocate(order) {
            self.start(now, job, sub, None);
            return true;
        }
        if !self.alloc.can_ever_allocate(order) {
            if let Some((sub, dead_local)) = self.alloc.allocate_degraded(order) {
                self.start(now, job, sub, Some(dead_local));
                return true;
            }
        }
        false
    }

    /// No healthy block and no single-casualty block of this order can
    /// ever form again — the job can never run.
    fn permanently_unschedulable(&self, job: usize) -> bool {
        let order = self.trace.jobs[job].order;
        if self.alloc.can_ever_allocate(order) {
            return false;
        }
        let len = 1usize << order;
        !(0..self.alloc.p()).step_by(len).any(|base| {
            let block = Subcube::new(base, order);
            self.alloc.dead().iter().filter(|&&n| block.contains(n)).count() <= 1
        })
    }

    fn start(&mut self, now: f64, job: usize, sub: Subcube, dead_local: Option<usize>) {
        let spec = &self.trace.jobs[job];
        let dead: Vec<usize> = dead_local.into_iter().collect();
        // Execution is eager: the job's machine is private (a fresh
        // logical cube), so its result and service time are fixed at
        // admission; only the completion *event* is deferred.
        let output = spec.execute(self.cfg.cost, &dead);
        let attempt = self.attempts[job];
        self.push(now + output.service_us, What::Done { job, attempt });
        self.running.push(Running { job, sub, degraded: !dead.is_empty(), start_us: now, output });
    }

    fn finish(self) -> SimOutcome {
        assert!(self.running.is_empty(), "event loop drained with tenants running");
        assert!(self.queue.is_empty(), "event loop drained with jobs queued");
        let records: Vec<JobRecord> = self.records.into_iter().flatten().collect();
        let metrics = summarize(
            self.cfg.policy.name(),
            &records,
            self.skipped.len(),
            self.aborts,
            1usize << self.cfg.dim,
            self.rented_node_us,
        );
        SimOutcome { records, metrics }
    }
}

/// Space-share `trace` on one `2^dim` machine under `cfg`.
#[must_use]
pub fn run_trace(trace: &Trace, cfg: SimConfig) -> SimOutcome {
    Sim::new(trace, cfg).run()
}

/// The whole-machine FCFS baseline: one job at a time, each holding all
/// `p` nodes exclusively while running on its requested order. Service
/// times equal the standalone runs; only the (non-)sharing differs.
/// Machine failures are ignored — strictly favourable to the baseline.
#[must_use]
pub fn run_fcfs(trace: &Trace, dim: u32, cost: CostModel) -> SimOutcome {
    let p = 1usize << dim;
    let mut clock = 0.0f64;
    let mut rented = 0.0f64;
    let mut records = Vec::with_capacity(trace.jobs.len());
    for spec in &trace.jobs {
        let start = clock.max(spec.arrival_us);
        let out = spec.run_standalone(cost);
        let finish = start + out.service_us;
        rented += p as f64 * out.service_us;
        records.push(JobRecord {
            id: spec.id,
            kind: spec.kind.name(),
            order: spec.order,
            arrival_us: spec.arrival_us,
            start_us: start,
            finish_us: finish,
            service_us: out.service_us,
            wait_us: start - spec.arrival_us,
            attempts: 1,
            degraded: false,
            words: out.words,
        });
        clock = finish;
    }
    let metrics = summarize("fcfs-whole-machine", &records, 0, 0, p, rented);
    SimOutcome { records, metrics }
}

fn summarize(
    scheduler: &str,
    records: &[JobRecord],
    skipped: usize,
    aborts: u32,
    p: usize,
    rented_node_us: f64,
) -> Metrics {
    let makespan = records.iter().map(|r| r.finish_us).fold(0.0f64, f64::max);
    let mut waits: Vec<f64> = records.iter().map(|r| r.wait_us).collect();
    waits.sort_by(|a, b| a.total_cmp(b));
    Metrics {
        scheduler: scheduler.to_owned(),
        completed: records.len(),
        skipped,
        aborts,
        degraded_runs: records.iter().filter(|r| r.degraded).count(),
        makespan_us: makespan,
        throughput_jobs_per_s: if makespan > 0.0 {
            records.len() as f64 / makespan * 1.0e6
        } else {
            0.0
        },
        p50_wait_us: percentile(&waits, 0.50),
        p99_wait_us: percentile(&waits, 0.99),
        utilization: if makespan > 0.0 { rented_node_us / (p as f64 * makespan) } else { 0.0 },
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceParams;

    fn cfg(policy: Policy) -> SimConfig {
        SimConfig { dim: 6, cost: CostModel::cm2(), policy }
    }

    #[test]
    fn every_job_completes_and_matches_standalone_bits() {
        let trace = Trace::generate(TraceParams::smoke(), 7);
        for policy in [Policy::Fifo, Policy::Spjf] {
            let out = run_trace(&trace, cfg(policy));
            assert_eq!(out.metrics.completed + out.metrics.skipped, trace.jobs.len());
            for r in &out.records {
                let standalone = trace.jobs[r.id].run_standalone(CostModel::cm2());
                assert_eq!(r.words, standalone.words, "job {} under {:?}", r.id, policy);
                assert!(r.wait_us >= 0.0 && r.finish_us >= r.start_us);
            }
        }
    }

    #[test]
    fn failures_abort_and_replan() {
        // One failure mid-trace on a busy low node: at least one run
        // should show attempts > 1 or the pool visibly shrink.
        let trace = Trace::generate(TraceParams::smoke(), 1989);
        let out = run_trace(&trace, cfg(Policy::Fifo));
        assert_eq!(out.metrics.completed + out.metrics.skipped, trace.jobs.len());
        // The allocator lost exactly the dead leaves; jobs still finish.
        assert!(out.metrics.completed > 0);
    }

    #[test]
    fn schedulers_beat_the_whole_machine_baseline() {
        let trace = Trace::generate(TraceParams::smoke(), 3);
        let base = run_fcfs(&trace, 6, CostModel::cm2());
        let fifo = run_trace(&trace, cfg(Policy::Fifo));
        assert!(
            fifo.metrics.throughput_jobs_per_s > base.metrics.throughput_jobs_per_s,
            "space-sharing must outrun exclusive FCFS ({} vs {})",
            fifo.metrics.throughput_jobs_per_s,
            base.metrics.throughput_jobs_per_s
        );
        assert!(fifo.metrics.p99_wait_us <= base.metrics.p99_wait_us);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
