//! The reproduction experiments — one driver per table/figure of
//! `DESIGN.md`'s experiment index.

pub mod algorithms_exp;
pub mod allport_exp;
pub mod embedding_exp;
pub mod extensions_exp;
pub mod fault_exp;
pub mod naive_exp;
pub mod optimality_exp;
pub mod primitives_exp;
pub mod sched_exp;
pub mod spanning_exp;

use crate::table::Table;

/// One experiment: its id, a one-line description and its driver.
pub type Experiment = (&'static str, &'static str, fn() -> Table);

/// Every experiment in presentation order (T/F reproduce the paper's
/// evaluation; X are this library's extensions; R are robustness;
/// `sched` is the multi-tenant scheduler study; `allport` the all-port
/// collective engine). `reproduce` runs, lists and validates ids from
/// this one table.
pub const EXPERIMENTS: [Experiment; 18] = [
    ("t1", "primitive timings vs matrix size (p = 1024, CM-2 model)", primitives_exp::t1),
    ("t2", "primitive timings vs machine size (n = 1024, CM-2 model)", primitives_exp::t2),
    ("t3", "naive (general router) vs primitives, application kernels (p = 256)", naive_exp::t3),
    ("t4", "algorithm timings: matvec, elimination, simplex (p = 1024)", algorithms_exp::t4),
    (
        "t5",
        "embedding-change costs (n = 1024 vectors, 512x512 matrix, p = 1024)",
        embedding_exp::t5,
    ),
    ("f1", "efficiency T_serial/(p*T_par) vs m/p at p = 1024", optimality_exp::f1),
    ("f2", "T_par vs p at fixed n = 512, against Omega(m/p + lg p)", optimality_exp::f2),
    (
        "f3",
        "per-primitive speedup of blocked over element-router implementations (p = 256)",
        naive_exp::f3,
    ),
    ("f4", "collective schedule ablation vs message length (p = 1024)", spanning_exp::f4),
    (
        "x1",
        "matmul schedules: rank-1 (pure primitives) vs panel blocking (p = 256)",
        extensions_exp::x1,
    ),
    ("x2", "conjugate gradient (SPD, n = 96) vs machine size", extensions_exp::x2),
    (
        "x3",
        "Jacobi stencil (5 sweeps, n = 256): NEWS shifts on the Gray-coded embedding",
        extensions_exp::x3,
    ),
    ("x4", "FFT and bitonic sort (n = 4096) vs machine size", extensions_exp::x4),
    ("x5", "shape stability under different cost constants (p = 256, matvec)", extensions_exp::x5),
    (
        "x6",
        "histogram: dense vs sparse all-to-all reduction (p = 256, B = 1024)",
        extensions_exp::x6,
    ),
    (
        "r1",
        "fault-sweep: elimination under drops, dead links and degradation (p = 16)",
        fault_exp::r1,
    ),
    (
        "sched",
        "multi-tenant subcube scheduler vs whole-machine FCFS (p = 1024, + BENCH_sched.json)",
        sched_exp::sched,
    ),
    (
        "allport",
        "all-port collectives vs single-port schedules (p up to 1024, + BENCH_allport.json)",
        allport_exp::allport,
    ),
];

/// The experiment with id `id` (case-insensitive). `None` for unknown
/// ids.
#[must_use]
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|(known, _, _)| known.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(find("t99").is_none());
        assert_eq!(find("T1").map(|e| e.0), Some("t1"), "ids are case-insensitive");
    }
}
