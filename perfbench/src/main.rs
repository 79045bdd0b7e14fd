//! The repository's benchmark: four closed-loop workloads measured on
//! both clocks — the host clock the simulator spends and the simulated
//! CM-2 clock the paper's claims are about.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gauss-p1024|simplex-p64|matvec-p64|sched-p1024|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client on one thread sends the next op only after the last one
//! finished; each op gets a fresh input derived from the seed, built
//! just before the op and outside its timed region. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer metrics of a
//! separate traced run. End-to-end host times are CPU times scaled to
//! a reference speed by fixed kernels timed beside every op (`calib`),
//! which takes the shared machine's changing speed out of them. The
//! last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--workload all` runs each workload in its own process and prints a
//! table of every metric with its unit.

mod calib;
mod probes;
mod spans;
mod util;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use calib::{Kernel, Speed};
use spans::Spans;
use util::{
    cpu_ns, mean, median, num, op_seed, peak_rss_mib, percentile, quote, sys_ms, time_ns, Digest,
};
use workloads::{Gauss, Matvec, OpSim, Sched, Simplex, Workload};

const WORKLOADS: [&str; 4] = [Gauss::NAME, Simplex::NAME, Matvec::NAME, Sched::NAME];

/// Traced runs pair every traced op with an untraced one.
const MIN_TRACED_OPS: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Op index of the first warm-up op; set-up `r` warms up on op
/// `WARMUP_OP - r`, far outside the measured ops' seed stream.
const WARMUP_OP: u64 = u64::MAX;
/// Passes of each reference kernel after each set-up; their medians
/// scale its time.
const SETUP_KERNEL_PASSES: usize = 9;
/// Ops and jobs per op an untraced run reserves record space for up
/// front; more still fit, at the cost of a reallocation.
const RESERVED_OPS: usize = 1 << 16;
const RESERVED_JOBS_PER_OP: usize = 64;

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: String, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(n), num(*v), quote(u))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Report {
    /// Every metric with its unit, for reading by eye (standard error).
    fn print_table(&self, workload: &str) {
        let rate = self.failed as f64 / self.attempted as f64;
        eprintln!("{workload:<12} {:<32} {:>14} failed/attempted", "error_rate", num(rate));
        for (name, value, unit) in &self.metrics.0 {
            eprintln!("{workload:<12} {name:<32} {:>14} {unit}", format!("{value:.6}"));
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

/// Run-time files (traces, the determinism ledger) live beside the
/// benchmark's sources, inside the checkout.
fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Digest of this benchmark's own executable: the ledger compares only
/// runs of one build, so a change that legitimately moves the simulated
/// clock or a counter starts a fresh ledger instead of failing.
fn build_digest() -> u64 {
    let exe = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    Digest::new().slice(&exe).finish()
}

/// Record the digest of a run's simulated results under its build,
/// workload and seed; returns false if an earlier run of the same build
/// and key recorded a different digest (the simulator drifted between
/// runs of the same code).
fn ledger_agrees(workload: &str, seed: u64, ops: usize, digest: u64) -> bool {
    let path = out_dir().join("determinism.tsv");
    let key = format!("{:016x}\t{workload}\t{seed}\t{ops}\t", build_digest());
    let line = format!("{key}{digest:016x}");
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(prev) = old.lines().find(|l| l.starts_with(&key)) {
        return prev == line;
    }
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    true
}

/// What an untraced run keeps of each of its first `SIM_OPS` ops.
struct SimRecord {
    sim_us: f64,
    jobs: u64,
    digest: u64,
}

/// One measured op: host ms of the timed call and its simulated record.
struct Op {
    host_ms: f64,
    /// The part of `host_ms` the kernel spent on the process's behalf.
    sys_ms: f64,
    ok: bool,
    sim: OpSim,
}

fn measure<W: Workload>(w: &mut W, seed: u64, index: u64) -> Op {
    let mut input = w.input(op_seed(seed, index));
    let sys = sys_ms();
    let (mut out, ns) = time_ns(|| w.run(&mut input));
    let sys_ms = sys_ms() - sys;
    let ok = w.check(&input, &mut out);
    Op { host_ms: ns / 1e6, sys_ms, ok, sim: w.sim(&out) }
}

/// The untraced run: end-to-end metrics.
fn end_to_end<W: Workload>(seed: u64, seconds: f64) -> Report {
    let mut kernel = Kernel::new();
    let (mut setup_s, mut setup_sys_ms, mut setup_speeds) = (Vec::new(), 0.0, Vec::new());
    let mut w = None;
    for rep in 0..SETUP_REPS {
        drop(w.take());
        let (t, sys) = (cpu_ns(), sys_ms());
        let mut wk = W::setup(seed);
        let mut input = wk.input(op_seed(seed, WARMUP_OP - rep as u64));
        std::hint::black_box(wk.run(&mut input));
        setup_s.push((cpu_ns() - t) / 1e9);
        setup_sys_ms += sys_ms() - sys;
        setup_speeds.push(kernel.median(SETUP_KERNEL_PASSES));
        w = Some(wk);
    }
    let setup_sys_share = setup_sys_ms / (setup_s.iter().sum::<f64>() * 1e3);
    let setups: Vec<f64> = setup_s
        .iter()
        .zip(&setup_speeds)
        .map(|(s, speed)| s / speed.slowdown(setup_sys_share))
        .collect();
    let mut w = w.expect("at least one set-up");

    // Per-op records go into buffers reserved before the first op, so
    // the run's own bookkeeping never interleaves long-lived blocks with
    // the program's short-lived ones on the heap. (With records
    // allocated op by op, an allocation-heavy probe run between
    // `sched-p1024` replays slowed threefold over five minutes.) The
    // reference kernels run after each op, outside its timed region.
    let start = Instant::now();
    let mut host_ms: Vec<f64> = Vec::with_capacity(RESERVED_OPS);
    let mut speeds: Vec<Speed> = Vec::with_capacity(RESERVED_OPS);
    let mut op_sys_ms = 0.0;
    let mut ok: Vec<bool> = Vec::with_capacity(RESERVED_OPS);
    let mut sims: Vec<SimRecord> = Vec::with_capacity(W::SIM_OPS);
    let mut responses: Vec<f64> = Vec::with_capacity(W::SIM_OPS * RESERVED_JOBS_PER_OP);
    while host_ms.len() < W::SIM_OPS || start.elapsed().as_secs_f64() < seconds {
        let op = measure(&mut w, seed, host_ms.len() as u64);
        if sims.len() < W::SIM_OPS {
            responses.extend_from_slice(&op.sim.responses_us);
            sims.push(SimRecord {
                sim_us: op.sim.sim_us,
                jobs: op.sim.jobs,
                digest: op.sim.digest,
            });
        }
        host_ms.push(op.host_ms);
        op_sys_ms += op.sys_ms;
        speeds.push(kernel.sample());
        ok.push(op.ok);
    }
    let peak = peak_rss_mib();

    // Determinism gate: op 0 again, and this seed's earlier runs of the
    // same build. Drift fails the ops whose simulated results it touches.
    let again = measure(&mut w, seed, 0);
    if again.sim.digest != sims[0].digest {
        eprintln!("perfbench: op 0 replayed with a different result, clock or counters");
        ok[0] = false;
    }
    let mut d = Digest::new();
    d.words(sims.iter().map(|s| s.digest));
    if !ledger_agrees(W::NAME, seed, W::SIM_OPS, d.finish()) {
        eprintln!("perfbench: simulated results differ from an earlier run of this seed and build");
        ok[..W::SIM_OPS].iter_mut().for_each(|o| *o = false);
    }
    let failed = ok.iter().filter(|o| !**o).count();

    let sim_us: Vec<f64> = sims.iter().map(|s| s.sim_us).collect();
    let jobs: u64 = sims.iter().map(|s| s.jobs).sum();
    let sys_share = op_sys_ms / host_ms.iter().sum::<f64>();
    let ref_ms = calib::scale_to_ref(&host_ms, &speeds, sys_share);
    let mut m = Metrics::default();
    m.push("setup_s".into(), median(&setups), "s");
    m.push("ops_per_s".into(), ref_ms.len() as f64 / (ref_ms.iter().sum::<f64>() / 1e3), "1/s");
    m.push("op_ms.p50".into(), percentile(&ref_ms, 0.50), "ms");
    m.push("op_ms.p90".into(), percentile(&ref_ms, 0.90), "ms");
    m.push("peak_rss_mib".into(), peak, "MiB");
    m.push("sim_ms_per_op".into(), mean(&sim_us) / 1e3, "sim_ms");
    m.push("sim_jobs_per_s".into(), jobs as f64 / (sim_us.iter().sum::<f64>() / 1e6), "jobs/sim_s");
    m.push("sim_response_ms.p50".into(), percentile(&responses, 0.50) / 1e3, "sim_ms");
    m.push("sim_response_ms.p99".into(), percentile(&responses, 0.99) / 1e3, "sim_ms");
    eprintln!(
        "perfbench: {} {} ops in {:.1} s; unscaled CPU op_ms.p50 {:.3}, system share {:.3}, \
         kernel ms p50 {:.4} (cpu) {:.4} (page faults)",
        W::NAME,
        host_ms.len(),
        start.elapsed().as_secs_f64(),
        median(&host_ms),
        sys_share,
        median(&speeds.iter().map(|s| s.cpu_ms).collect::<Vec<_>>()),
        median(&speeds.iter().map(|s| s.fault_ms).collect::<Vec<_>>())
    );
    Report { attempted: host_ms.len(), failed, metrics: m }
}

/// The traced run: each op untraced, then traced on the same input
/// (which must reproduce it bit for bit), then the serial oracle; then
/// the layer probes at the workload's shape. Per-layer metrics.
fn per_layer<W: Workload>(seed: u64, seconds: f64) -> Report {
    let mut w = W::setup(seed);
    let mut warm = w.input(op_seed(seed, WARMUP_OP));
    std::hint::black_box(w.run(&mut warm));
    drop(warm);

    let mut spans = Spans::new();
    let (mut plain_ms, mut traced_ms, mut serial_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut sims: Vec<OpSim> = Vec::new();
    let mut node_step_ns = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    let mut prev_sim_us = 0.0;
    while sims.len() < MIN_TRACED_OPS || start.elapsed().as_secs_f64() < seconds {
        let i = sims.len() as u64;
        let plain = measure(&mut w, seed, i);
        let mut input = w.input(op_seed(seed, i));
        spans.begin_op(i, prev_sim_us);
        let mut out = w.run_traced(&mut input, &mut spans);
        let ok = w.check(&input, &mut out);
        let sim = w.sim(&out);
        drop(out);
        if !(ok && plain.ok && sim.digest == plain.sim.digest) {
            eprintln!(
                "perfbench: op {i}: traced drive differs from the untraced op or fails its check"
            );
            failed += 1;
        }
        serial_ms.push(w.serial_ns(&input) / 1e6);
        drop(input);
        let exec_ns = sim.sched.as_ref().map_or(plain.host_ms * 1e6, |s| s.exec_ns);
        node_step_ns.push(exec_ns / sim.node_steps.max(1.0));
        prev_sim_us = sim.sim_us;
        plain_ms.push(plain.host_ms);
        traced_ms.push(spans.op_host_us(i) / 1e3);
        sims.push(sim);
    }

    let mut m = Metrics::default();
    let (dim, cost) = w.probe_machine();
    let probe_seed = op_seed(seed, WARMUP_OP - SETUP_REPS as u64);

    // algos: from this drive's spans where it runs the algorithm, else
    // from one probe solve on the workload's machine.
    let steps = spans.host_us("forward_eliminate_range");
    let (step_us, backsub_us, swaps) = if steps.is_empty() {
        probes::ge(dim, cost, probe_seed)
    } else {
        let swaps: Vec<f64> = sims.iter().map(|s| s.row_swaps as f64).collect();
        (median(&steps), median(&spans.host_us("back_substitute")), mean(&swaps))
    };
    let pivots_us = spans.host_us("pivot_once");
    let (pivot_us, pivots) = if pivots_us.is_empty() {
        probes::simplex(dim, cost, probe_seed)
    } else {
        let pivots: Vec<f64> = sims.iter().map(|s| s.pivots as f64).collect();
        (median(&pivots_us), mean(&pivots))
    };
    let op_p50 = median(&plain_ms);
    m.push("algos.ge.step_us.p50".into(), step_us, "us");
    m.push("algos.ge.backsub_us".into(), backsub_us, "us");
    m.push("algos.ge.swaps_per_op".into(), swaps, "count");
    m.push("algos.simplex.pivot_us.p50".into(), pivot_us, "us");
    m.push("algos.simplex.pivots_per_op".into(), pivots, "count");
    m.push("algos.serial.op_ms".into(), median(&serial_ms), "ms");
    m.push("algos.sim_overhead_x".into(), op_p50 / median(&serial_ms), "ratio");

    let shape = w.probe_shape();
    probes::vmp(dim, cost, shape, &mut m);

    probes::hypercube(dim, cost, shape, &mut m);
    m.push("hypercube.ns_per_node_step".into(), median(&node_step_ns), "ns");
    let per_op = |f: fn(&vmp_hypercube::Counters) -> u64| {
        sims.iter().map(|s| f(&s.counters) as f64).sum::<f64>() / sims.len() as f64
    };
    m.push("hypercube.message_steps".into(), per_op(|c| c.message_steps), "count");
    m.push("hypercube.allport_steps".into(), per_op(|c| c.allport_steps), "count");
    m.push("hypercube.elements_transferred".into(), per_op(|c| c.elements_transferred), "count");
    m.push("hypercube.max_channel_load".into(), per_op(|c| c.max_channel_load), "count");
    m.push("hypercube.flops".into(), per_op(|c| c.flops), "count");
    m.push("hypercube.local_moves".into(), per_op(|c| c.local_moves), "count");
    m.push("hypercube.transient_drops".into(), per_op(|c| c.transient_drops), "count");
    m.push("hypercube.retries".into(), per_op(|c| c.retries), "count");
    m.push("hypercube.reroutes".into(), per_op(|c| c.reroutes), "count");
    let first_try = 1.0 - per_op(|c| c.retries) / per_op(|c| c.message_steps).max(1.0);
    m.push("hypercube.first_try_frac".into(), first_try, "ratio");

    probes::layout(dim, shape, &mut m);

    let (sched_dim, jobs) = w.probe_jobs(probe_seed);
    if sims[0].sched.is_some() {
        let stats: Vec<_> = sims.iter().filter_map(|s| s.sched.as_ref()).collect();
        let exec_ms: Vec<f64> = stats.iter().map(|s| s.exec_ns / 1e6).collect();
        let self_frac: Vec<f64> =
            exec_ms.iter().zip(&plain_ms).map(|(exec, replay)| 1.0 - exec / replay).collect();
        let attempts: u64 = stats.iter().map(|s| s.attempts).sum();
        let jobs_done: u64 = sims.iter().map(|s| s.jobs).sum();
        let waits: Vec<f64> = stats.iter().flat_map(|s| s.waits_us.iter().copied()).collect();
        let per = |f: fn(&workloads::SchedStats) -> f64| {
            mean(&stats.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        m.push("sched.exec_ms".into(), median(&exec_ms), "ms");
        m.push("sched.self_frac".into(), median(&self_frac), "ratio");
        m.push("sched.attempts_per_job".into(), attempts as f64 / jobs_done as f64, "count");
        m.push("sched.aborts".into(), per(|s| s.aborts as f64), "count");
        m.push("sched.degraded_runs".into(), per(|s| s.degraded as f64), "count");
        m.push("sched.sim_wait_ms.p99".into(), percentile(&waits, 0.99) / 1e3, "sim_ms");
        m.push("sched.sim_utilization".into(), per(|s| s.utilization), "ratio");
    } else {
        probes::single_job_schedule(dim, cost, jobs.clone(), &mut m);
    }
    probes::sched(sched_dim, cost, &jobs, &mut m);

    m.push("trace.overhead_frac".into(), median(&traced_ms) / op_p50 - 1.0, "ratio");

    let path = out_dir().join(format!("trace-{}-seed{seed}.json", W::NAME));
    if let Err(e) = std::fs::write(&path, spans.chrome_json(W::NAME, seed)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!("perfbench: {} traced {} ops; spans in {}", W::NAME, sims.len(), path.display());
    Report { attempted: sims.len(), failed, metrics: m }
}

fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Report {
    if trace {
        per_layer::<W>(seed, seconds)
    } else {
        end_to_end::<W>(seed, seconds)
    }
}

/// `--workload all`: every workload in a process of its own, so each
/// reports its own peak memory. Each prints its metric table to
/// standard error and its JSON report to standard output.
fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot find own executable");
        return ExitCode::FAILURE;
    };
    let mut code = ExitCode::SUCCESS;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("perfbench: {name} failed");
            code = ExitCode::FAILURE;
        }
    }
    code
}

const USAGE: &str =
    "usage: perfbench --workload <gauss-p1024|simplex-p64|matvec-p64|sched-p1024|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        let ok = match (flag.as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Some(v.clone());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| seed = s).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|s| seconds = s).is_ok_and(|()| seconds > 0.0),
            ("--trace", Some(v)) if v == "0" || v == "1" => {
                trace = v == "1";
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    let report = match workload.as_deref() {
        Some("all") => return run_all(seed, seconds, trace),
        Some(Gauss::NAME) => run::<Gauss>(seed, seconds, trace),
        Some(Simplex::NAME) => run::<Simplex>(seed, seconds, trace),
        Some(Matvec::NAME) => run::<Matvec>(seed, seconds, trace),
        Some(Sched::NAME) => run::<Sched>(seed, seconds, trace),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.print_table(&workload.unwrap_or_default());
    println!("{}", report.json());
    ExitCode::SUCCESS
}
