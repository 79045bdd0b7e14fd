//! R1 — robustness: fault-sweep overhead of the resilient machine.
//!
//! One workload (Gaussian elimination solve, the paper's second
//! application) runs under an escalating fault schedule: the plain
//! machine, the resilient machine with an empty fault plan (the
//! zero-fault overhead row — must be exactly 1.00x), transient message
//! drops at increasing rates, a permanently dead link, and a dead node
//! absorbed by graceful degradation. Every row's solution is compared
//! bit-for-bit against the fault-free run: recovery must never change
//! results, only the modeled cost.

use vmp_algos::{ge_solve, workloads};
use vmp_core::prelude::*;
use vmp_hypercube::FaultPlan;

use crate::common::{cm2, square_grid};
use crate::table::{fmt_us, fmt_x, Table};

const DIM: u32 = 4;
const N: usize = 20;
const SEED: u64 = 1989;

fn solve(hc: &mut Hypercube) -> Vec<f64> {
    let (a, b, _) = workloads::diag_dominant_system(N, SEED);
    let (x, _) = ge_solve(hc, &a, &b, square_grid(DIM)).expect("dominant system is nonsingular");
    x
}

/// R1: fault-sweep — overhead and recovery counters vs fault schedule.
#[must_use]
pub fn r1() -> Table {
    let mut t = Table::new(
        "R1",
        "fault-sweep: Gaussian elimination (n = 20, p = 16) under injected faults",
        "robustness extension: retries, detours and degradation keep every result bit-identical; faults cost only modeled time",
        &["fault schedule", "elapsed", "overhead", "retries", "drops", "reroutes", "bit-identical"],
    );

    // Fault-free reference (plain machine, no resilience layer).
    let mut hc0 = cm2(DIM);
    let x0 = solve(&mut hc0);
    let base_us = hc0.elapsed_us();

    let drops = |rate: f64| FaultPlan::none(SEED).with_drops(rate, 0, u64::MAX);
    let schedules: Vec<(&str, Option<FaultPlan>, Vec<usize>)> = vec![
        ("none (plain machine)", None, vec![]),
        ("none (resilient layer on)", Some(FaultPlan::none(SEED)), vec![]),
        ("1% transient drops", Some(drops(0.01)), vec![]),
        ("5% transient drops", Some(drops(0.05)), vec![]),
        ("20% transient drops", Some(drops(0.20)), vec![]),
        ("dead link 0-1", Some(FaultPlan::none(SEED).with_link_fault(0, 1, 0)), vec![]),
        ("dead node 5 (degraded)", None, vec![5]),
    ];

    for (label, plan, dead) in schedules {
        let mut hc = cm2(DIM);
        if let Some(plan) = plan {
            hc.install_faults(plan);
        }
        if !dead.is_empty() {
            // Resident volume: the augmented matrix each node will hold.
            let layout = MatrixLayout::cyclic(MatShape::new(N, N + 1), square_grid(DIM));
            let resident: Vec<usize> = (0..hc.p()).map(|n| layout.local_len(n)).collect();
            hc.degrade(&dead, &resident);
        }
        // `degrade` charges migration but no retries, drops or reroutes,
        // so the machine's own tallies are the solve's.
        let x = solve(&mut hc);
        let c = hc.counters();
        t.row(vec![
            label.to_string(),
            fmt_us(hc.elapsed_us()),
            fmt_x(hc.elapsed_us() / base_us),
            c.retries.to_string(),
            c.transient_drops.to_string(),
            c.reroutes.to_string(),
            if x == x0 { "yes".to_string() } else { "NO".to_string() },
        ]);
    }

    t.note("overhead is relative to the plain machine; the zero-fault resilient row prices the detection layer (identical cost path)");
    t.note("transient drops retry with bounded exponential backoff; persistent drops and dead links detour (2 extra hops)");
    t.note("the dead-node row concentrates node 5's block on a healthy neighbour; its host then simulates both nodes");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r1_sweep_recovers_bitwise_and_prices_faults() {
        let t = r1();
        assert_eq!(t.rows.len(), 7);
        for row in &t.rows {
            assert_eq!(row[6], "yes", "{}: faults must not change results", row[0]);
        }
        // Zero-fault resilient row is exactly 1.00x.
        assert_eq!(t.rows[1][2], t.rows[0][2], "resilient layer must be free without faults");
        // Fault rows really fired: counters are nonzero and overhead grows.
        assert_ne!(t.rows[4][3], "0", "20% drops must cause retries");
        assert_ne!(t.rows[5][5], "0", "dead link must cause reroutes");
    }
}
